package main

import (
	"strings"
	"testing"
)

func TestRecordPlanHasExactReadShare(t *testing.T) {
	for w := range recWorkers {
		reads := 0
		for _, r := range recordPlan(7, w, 1000) {
			if r {
				reads++
			}
		}
		if reads != 1000/recReadEvery {
			t.Errorf("worker %d: %d reads in 1000 ops, want %d", w, reads, 1000/recReadEvery)
		}
	}
}

func TestCheckLog(t *testing.T) {
	const seed = 3
	ids := []recID{{0, 0}, {1, 0}, {0, 1}}
	var log []byte
	acked := map[recID]bool{}
	for _, id := range ids {
		rec := make([]byte, recSize)
		makeRecord(rec, seed, id.writer, id.seq)
		log = append(log, rec...)
		acked[id] = true
	}
	if err := checkLog(log, seed, acked, nil); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	for name, tc := range map[string]struct {
		log   []byte
		acked map[recID]bool
		want  string
	}{
		"missing ack":  {log[:2*recSize], acked, "missing"},
		"duplicate":    {append(append([]byte{}, log...), log[:recSize]...), acked, "twice"},
		"unacked":      {log, map[recID]bool{{0, 0}: true, {1, 0}: true}, "never appended"},
		"wrong seed":   {log, acked, "content"},
		"torn tail":    {log[:len(log)-1], acked, "bad length"},
		"garbage head": {append([]byte("x"), log...), acked, "no record header"},
	} {
		s := uint64(seed)
		if name == "wrong seed" {
			s++
		}
		err := checkLog(tc.log, s, tc.acked, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	corrupt := append([]byte{}, log...)
	corrupt[recSize+100] ^= 1
	if err := checkLog(corrupt, seed, acked, nil); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt payload: err = %v", err)
	}
	// An append whose outcome is unknown may be present or absent.
	if err := checkLog(log, seed, map[recID]bool{{0, 0}: true, {1, 0}: true}, map[recID]bool{{0, 1}: true}); err != nil {
		t.Errorf("unknown-outcome append present: %v", err)
	}
}
