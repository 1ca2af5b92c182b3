package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers and allocLayers are the attribution buckets of the per-layer
// metrics <L>.cpu_s and <L>.alloc_mb. "telemetry" groups metrics, trace and
// obs (ROADMAP item 2 merges them); "gc" is background collector work;
// "other" is everything with no frame in a listed package (the harness
// itself, runtime start-up, packages outside the benchmark's layer list).
var (
	cpuLayers = []string{"txpool", "sim", "ethsim", "types", "core", "strategy", "tracker",
		"graph", "netgen", "runner", "experiments", "telemetry", "gc", "other"}
	allocLayers = []string{"txpool", "sim", "ethsim", "types", "core", "telemetry", "other"}
)

const modulePrefix = "toposhot/internal/"

// layerByPkg maps an internal package to its attribution bucket.
var layerByPkg = map[string]string{
	"txpool": "txpool", "sim": "sim", "ethsim": "ethsim", "types": "types", "core": "core",
	"strategy": "strategy", "tracker": "tracker", "graph": "graph", "netgen": "netgen",
	"runner": "runner", "experiments": "experiments",
	"metrics": "telemetry", "trace": "telemetry", "obs": "telemetry",
}

// gcRoots are the entry points of the collector's background goroutines.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.bgsweep": true, "runtime.bgscavenge": true,
}

// stackSample is one profile sample: function names innermost first, and
// one value per sample type.
type stackSample struct {
	frames []string
	values []int64
}

// layerOf charges a stack to the innermost frame that belongs to a listed
// layer, so runtime work (map access, memmove, mallocgc) lands on the layer
// that asked for it.
func layerOf(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, modulePrefix) {
			continue
		}
		pkg := f[len(modulePrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if layer, ok := layerByPkg[pkg]; ok {
			return layer
		}
	}
	for _, f := range frames {
		if gcRoots[f] {
			return "gc"
		}
	}
	return "other"
}

// fold sums the idx-th sample value by layer.
func fold(samples []stackSample, idx int) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		out[layerOf(s.frames)] += s.values[idx]
	}
	return out
}

// foldProfile reads a gzipped pprof profile and folds the sample type whose
// name is typ ("cpu", "alloc_space") by layer.
func foldProfile(data []byte, typ string) (map[string]int64, error) {
	types, samples, err := readProfile(data)
	if err != nil {
		return nil, err
	}
	for i, t := range types {
		if t == typ {
			return fold(samples, i), nil
		}
	}
	return nil, fmt.Errorf("profile has no %q sample type (have %v)", typ, types)
}

// readProfile decodes the parts of a pprof profile the fold needs: sample
// type names, and per sample the call stack as function names. It reads the
// protobuf wire format directly (profile.proto is small and stable), which
// keeps the benchmark free of module dependencies and of a `go tool pprof`
// subprocess.
func readProfile(data []byte) (types []string, samples []stackSample, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs      []string
		typeIdx   []uint64                // string index of each sample type
		funcName  = map[uint64]uint64{}   // function id → name string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		rawStacks [][]uint64
		rawValues [][]int64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(n int, v uint64, p []byte) (ferr error) {
				switch n {
				case 1:
					locs, ferr = appendVarints(locs, v, p)
				case 2:
					var u []uint64
					u, ferr = appendVarints(nil, v, p)
					for _, x := range u {
						vals = append(vals, int64(x))
					}
				}
				return ferr
			})
			rawStacks, rawValues = append(rawStacks, locs), append(rawValues, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, i := range typeIdx {
		types = append(types, str(i))
	}
	for i, locs := range rawStacks {
		if len(rawValues[i]) != len(types) {
			return nil, nil, fmt.Errorf("profile: sample %d has %d values for %d sample types", i, len(rawValues[i]), len(types))
		}
		s := stackSample{values: rawValues[i]}
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				s.frames = append(s.frames, str(funcName[fn]))
			}
		}
		samples = append(samples, s)
	}
	return types, samples, nil
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField walks one protobuf message, handing varint fields to fn as v
// and length-delimited fields as b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, rest, err := varint(msg)
		if err != nil {
			return err
		}
		msg = rest
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, rest, err := varint(msg)
			if err != nil {
				return err
			}
			msg = rest
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			n, rest, err := varint(msg)
			if err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errTruncated
			}
			if err := fn(num, 0, rest[:n]); err != nil {
				return err
			}
			msg = rest[n:]
		case 1, 5:
			n := 8
			if wire == 5 {
				n = 4
			}
			if len(msg) < n {
				return errTruncated
			}
			msg = msg[n:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's payload: the packed
// bytes when present, else the single unpacked value.
func appendVarints(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, rest, err := varint(packed)
		if err != nil {
			return dst, err
		}
		dst, packed = append(dst, x), rest
	}
	return dst, nil
}
