package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU profiles are attributed to the repository's modules: each sample
// goes to the innermost frame that belongs to a module, and samples
// with none go to runtime. The standard library's net/rpc and
// encoding/gob count as rpcnet (the wire codec rpcnet is built on);
// the benchmark's own frames are transparent, so a wrapper it puts
// around a layer never takes that layer's samples.

// cpuModules are the modules CPU time is reported for, in output order.
var cpuModules = []string{"core", "bsfs", "dht", "pagestore", "store", "stripecache", "simnet", "sim", "rpcnet", "runtime", "other"}

const (
	repoPrefix = "repro/"
	// benchPkg is the benchmark's own package: profiles name a main
	// package's symbols "main.<func>".
	benchPkg = "main"
)

// pkgOf returns the package path of a symbolized function name such as
// "repro/internal/core.(*Client).gather.func1" or "runtime.memmove".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// moduleOf maps one frame to a module; "" means the frame belongs to
// none (standard library, runtime, or the benchmark's main package).
func moduleOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case pkg == "net/rpc" || pkg == "encoding/gob":
		return "rpcnet"
	case strings.HasPrefix(pkg, repoPrefix+"internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, repoPrefix+"internal/"), "/")
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(pkg, repoPrefix):
		return "other"
	}
	return ""
}

// isGC reports whether a runtime frame is garbage-collector work
// (background marking, assists, sweeping, scavenging).
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attribute assigns one stack, leaf first, to a module. GC work is
// runtime's even when a module's allocation triggered it; a stack
// whose only repository frames are the benchmark's is "other".
func attribute(stack []string) string {
	sawBench := false
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime"
		}
		if m := moduleOf(fn); m != "" {
			return m
		}
		if pkgOf(fn) == benchPkg {
			sawBench = true
		}
	}
	if sawBench {
		return "other"
	}
	return "runtime"
}

// moduleShares decodes a gzipped pprof CPU profile and returns each
// module's share of the sampled CPU time, plus the sample count.
func moduleShares(profile []byte) (map[string]float64, int, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	weight := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU profiles: [count, nanoseconds]
		var stack []string
		for _, id := range s.locations {
			stack = append(stack, p.locations[id]...)
		}
		weight[attribute(stack)] += v
		total += v
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			shares[m] = float64(weight[m]) / float64(total)
		} else {
			shares[m] = 0
		}
	}
	return shares, len(p.samples), nil
}

// ---------------------------------------------------------------------
// A minimal decoder for the pprof profile.proto wire format: only the
// fields attribution needs (samples, locations with their inlined
// lines, functions, the string table).

type sample struct {
	locations []uint64
	values    []int64
}

type profile struct {
	samples []sample
	// locations maps a location id to its function names, innermost
	// inlined call first.
	locations map[uint64][]string
}

// profile.proto field numbers.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs     []string
		funcName = make(map[uint64]int64) // function id -> string index
		locFuncs = make(map[uint64][]uint64)
		p        = &profile{locations: make(map[uint64][]string)}
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fieldProfileSample:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fieldSampleLocation:
					return appendVarints(&s.locations, wire, v, b)
				case fieldSampleValue:
					var u []uint64
					if err := appendVarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case fieldProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locFuncs {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && i < int64(len(strs)) {
				names = append(names, strs[i])
			}
		}
		p.locations[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the bytes. Fixed-width fields are skipped.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not (wire type 0): the Go runtime's encoder writes both.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
