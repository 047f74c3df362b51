package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"memmove goes to its repo caller",
			[]string{"runtime.memmove", "repro/internal/core.(*Client).gatherPages", "main.run"}, "core"},
		{"memclr under an allocation goes to its repo caller",
			[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "repro/internal/pagestore.(*Store).Put"}, "pagestore"},
		{"gob is rpcnet",
			[]string{"encoding/gob.(*Decoder).decodeStruct", "encoding/gob.(*Decoder).Decode", "net/rpc.(*gobClientCodec).ReadResponseBody", "net/rpc.(*Client).input"}, "rpcnet"},
		{"net/rpc is rpcnet",
			[]string{"runtime.memmove", "bufio.(*Reader).Read", "net/rpc.(*Server).ServeCodec", "repro/internal/cluster.(*Local).Daemon.func1"}, "rpcnet"},
		{"the benchmark's own frames are transparent",
			[]string{"syscall.Syscall", "net.(*conn).Write", "main.(*countingConn).Write", "bufio.(*Writer).Flush", "encoding/gob.(*Encoder).Encode", "net/rpc.(*Server).sendResponse"}, "rpcnet"},
		{"wrapped Env charges stay with the simulator",
			[]string{"repro/internal/simnet.(*Network).recomputeLocked", "repro/internal/simnet.(*Network).Transfer", "repro/internal/cluster.(*Sim).Gather", "main.(*tracedEnv).Gather", "repro/internal/core.(*Client).gatherPages"}, "simnet"},
		{"sim is not simnet", []string{"repro/internal/sim.(*Engine).Run"}, "sim"},
		{"stripecache", []string{"repro/internal/stripecache.(*Cache).Get"}, "stripecache"},
		{"other repo packages", []string{"runtime.mapaccess1", "repro/internal/placement.(*Manager).Place"}, "other"},
		{"only benchmark frames", []string{"math/rand/v2.(*PCG).Uint64", "main.fillSeeded", "main.main"}, "other"},
		{"no repo frame", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{"background GC", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{"GC assist inside a repo call",
			[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/core.(*Client).WriteAt"}, "runtime"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("%s: attribute = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// pb builds protobuf messages for the decoder test.
type pb struct{ b []byte }

func (m *pb) varint(num int, v uint64) *pb {
	m.b = binary.AppendUvarint(m.b, uint64(num)<<3)
	m.b = binary.AppendUvarint(m.b, v)
	return m
}

func (m *pb) bytes(num int, b []byte) *pb {
	m.b = binary.AppendUvarint(m.b, uint64(num)<<3|2)
	m.b = binary.AppendUvarint(m.b, uint64(len(b)))
	m.b = append(m.b, b...)
	return m
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestModuleSharesDecodesProfiles feeds the decoder a hand-built,
// gzipped profile: inlined frames, packed and unpacked repeated
// fields, and fields the decoder must skip.
func TestModuleSharesDecodesProfiles(t *testing.T) {
	strs := []string{"", "samples", "count", "runtime.memmove", "repro/internal/core.(*Client).gatherPages", "net/rpc.(*Client).input"}
	p := &pb{}
	p.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // sample_type, skipped
	// Sample 1: location 1 (memmove inlined into core), 30 ns, packed.
	p.bytes(2, (&pb{}).bytes(1, packed(1)).bytes(2, packed(1, 30)).b)
	// Sample 2: location 2 (net/rpc), 10 ns, unpacked fields.
	p.bytes(2, (&pb{}).varint(1, 2).varint(2, 1).varint(2, 10).b)
	p.bytes(4, (&pb{}).varint(1, 1).varint(3, 0x4000).
		bytes(4, (&pb{}).varint(1, 10).varint(2, 7).b).
		bytes(4, (&pb{}).varint(1, 11).varint(2, 9).b).b)
	p.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 12).b).b)
	p.bytes(5, (&pb{}).varint(1, 10).varint(2, 3).b)
	p.bytes(5, (&pb{}).varint(1, 11).varint(2, 4).b)
	p.bytes(5, (&pb{}).varint(1, 12).varint(2, 5).b)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.varint(12, 10000000) // period, skipped
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	shares, samples, err := moduleShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples != 2 {
		t.Errorf("samples = %d, want 2", samples)
	}
	if math.Abs(shares["core"]-0.75) > 1e-12 || math.Abs(shares["rpcnet"]-0.25) > 1e-12 {
		t.Errorf("shares = %v, want core 0.75, rpcnet 0.25", shares)
	}
	if _, _, err := moduleShares(p.b[:len(p.b)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
