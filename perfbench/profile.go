package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads runtime/pprof CPU profiles (gzipped profile.proto)
// with a minimal protobuf decoder, because the benchmark may import
// only the standard library, and charges every sample to a layer.

// cpuSample is one profile sample: its call stack as function names,
// innermost frame first, how many profiling ticks hit that stack, and
// the CPU time they stand for.
type cpuSample struct {
	stack []string
	count int64
	ns    int64
}

// repoPrefix is the import-path prefix of the simulator's layers.
const repoPrefix = "whitefi/internal/"

// Layers outside whitefi/internal that samples can be charged to.
const (
	layerRuntime      = "runtime"      // GC workers, scheduler, other pure-runtime stacks
	layerUnattributed = "unattributed" // everything else: benchmark client, net/http plumbing
)

// layerOf charges a stack to the innermost whitefi/internal/<layer>
// frame, so standard-library and runtime frames (container/heap,
// mallocgc, GC assists) count toward the repository frame that called
// them. A stack with no repository frame is charged to the runtime when
// every frame is a runtime frame (background GC, scavenger, scheduler)
// and is otherwise left unattributed.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			return l
		}
	}
	if len(stack) == 0 {
		return layerUnattributed
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/internal/") {
			return layerUnattributed
		}
	}
	return layerRuntime
}

// repoLayer returns the package name of a whitefi/internal function
// ("whitefi/internal/sim.(*Engine).Run" is layer "sim").
func repoLayer(fn string) (string, bool) {
	if !strings.HasPrefix(fn, repoPrefix) {
		return "", false
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// errProto marks a malformed profile.
var errProto = errors.New("malformed profile")

// protoField is one decoded protobuf field: its number and either its
// varint value or its length-delimited payload.
type protoField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// protoFields splits a protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarint decodes a protobuf varint, returning the byte count read
// (0 or less on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints returns a repeated integer field's values, packed or not.
func varints(f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.b
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a gzipped CPU profile into samples carrying
// the cpu/nanoseconds value.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct{ locs, vals []uint64 }
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.b))
		case 5:
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, fmt.Errorf("profile function: %w", err)
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcName[id] = name
		case 4:
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, fmt.Errorf("profile location: %w", err)
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					ls, err := protoFields(g.b)
					if err != nil {
						return nil, fmt.Errorf("profile line: %w", err)
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2:
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, fmt.Errorf("profile sample: %w", err)
			}
			var s rawSample
			for _, g := range fs {
				vs, err := varints(g)
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					s.vals = append(s.vals, vs...)
				}
			}
			raws = append(raws, s)
		}
	}
	out := make([]cpuSample, 0, len(raws))
	for _, r := range raws {
		if len(r.vals) != 2 {
			return nil, fmt.Errorf("profile: sample has %d values, want samples/count and cpu/nanoseconds", len(r.vals))
		}
		s := cpuSample{count: int64(r.vals[0]), ns: int64(r.vals[1])}
		for _, loc := range r.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcName[fid]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// cpuSplit is CPU time and sample counts charged per layer.
type cpuSplit struct {
	ns      map[string]int64
	samples map[string]int64
	total   int64
}

// add charges samples to their layers.
func (c *cpuSplit) add(samples []cpuSample) {
	if c.ns == nil {
		c.ns, c.samples = map[string]int64{}, map[string]int64{}
	}
	for _, s := range samples {
		l := layerOf(s.stack)
		c.ns[l] += s.ns
		c.samples[l] += s.count
		c.total += s.count
	}
}

// attributed is the share of samples charged to a named layer: a
// whitefi/internal package or the runtime.
func (c *cpuSplit) attributed() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.total-c.samples[layerUnattributed]) / float64(c.total)
}
