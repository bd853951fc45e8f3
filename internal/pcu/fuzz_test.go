package pcu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzReader drives Reader with the fuzzer's bytes twice over. The input
// is a script length, that many script bytes — one decode call each —
// and a payload.
//
// Hostile: the script runs against the raw payload. Every call returns
// or panics with one of the Reader's own diagnostics (a *MalformedError,
// "pcu: ..."), never a runtime error, and a bulk decode yields no more than the payload
// could hold: a length prefix is checked against the bytes left before
// anything is allocated.
//
// Round trip: the script runs again as a writer, taking its values from
// the payload, behind a length prefix packed as zero and patched by
// SetInt32 once the length is known; whatever Buffer wrote reads back
// equal, and the prefix frames exactly what follows it.
//
// The seed corpus is under testdata/fuzz/FuzzReader; `make fuzz-smoke`
// looks for new inputs.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := min(int(data[0]), len(data)-1)
		script, payload := data[1:1+n], data[1+n:]
		fuzzDecode(t, script, payload)
		fuzzRoundTrip(t, script, payload)
	})
}

// The script's calls, by script byte modulo readerOps.
const (
	opByte = iota
	opInt32
	opInt64
	opFloat64
	opBytesNoCopy
	opAppendInt32s
	opInt64s
	opAppendFloat64s
	opDone
	readerOps
)

func fuzzDecode(t *testing.T, script, payload []byte) {
	r := NewReader(payload)
	for i, op := range script {
		before := r.Remaining()
		decoded := 0 // bytes of payload the call's result stands for
		func() {
			defer func() {
				switch p := recover().(type) {
				case nil:
				case runtime.Error:
					t.Fatalf("script[%d] = op %d with %d bytes left: runtime error %v", i, op%readerOps, before, p)
				case *MalformedError:
					if !strings.HasPrefix(p.Error(), "pcu: ") || !errors.Is(p, ErrMalformed) {
						t.Fatalf("script[%d] = op %d: foreign panic %q", i, op%readerOps, p)
					}
				default:
					t.Fatalf("script[%d] = op %d: panic %v", i, op%readerOps, p)
				}
			}()
			switch op % readerOps {
			case opByte:
				r.Byte()
				decoded = 1
			case opInt32:
				r.Int32()
				decoded = 4
			case opInt64:
				r.Int64()
				decoded = 8
			case opFloat64:
				r.Float64()
				decoded = 8
			case opBytesNoCopy:
				decoded = 4 + len(r.BytesNoCopy())
			case opAppendInt32s:
				decoded = 4 + 4*len(r.AppendInt32s(nil))
			case opInt64s:
				decoded = 4 + 8*len(r.Int64s())
			case opAppendFloat64s:
				decoded = 4 + 8*len(r.AppendFloat64s(nil))
			case opDone:
				r.Done()
			}
		}()
		if decoded > before {
			t.Fatalf("script[%d] = op %d decoded %d bytes of the %d left", i, op%readerOps, decoded, before)
		}
		if used := before - r.Remaining(); used < 0 || used > before {
			t.Fatalf("script[%d] = op %d moved the reader by %d of %d bytes", i, op%readerOps, used, before)
		}
	}
}

func fuzzRoundTrip(t *testing.T, script, payload []byte) {
	// take returns the next n payload bytes, zero-padded past the end.
	take := func(n int) []byte {
		out := make([]byte, n)
		payload = payload[copy(out, payload):]
		return out
	}
	var b Buffer
	b.Int32(0) // the frame's length, not known yet
	type value struct {
		op   byte
		u64  uint64
		raw  []byte
		i32s []int32
		u64s []uint64
	}
	var wrote []value
	for _, op := range script {
		v := value{op: op % readerOps}
		count := 0
		if v.op >= opBytesNoCopy && v.op != opDone {
			count = int(take(1)[0] % 9)
		}
		switch v.op {
		case opByte:
			v.u64 = uint64(take(1)[0])
			b.Byte(byte(v.u64))
		case opInt32:
			v.u64 = uint64(binary.LittleEndian.Uint32(take(4)))
			b.Int32(int32(v.u64))
		case opInt64:
			v.u64 = binary.LittleEndian.Uint64(take(8))
			b.Int64(int64(v.u64))
		case opFloat64:
			v.u64 = binary.LittleEndian.Uint64(take(8))
			b.Float64(math.Float64frombits(v.u64))
		case opBytesNoCopy:
			v.raw = take(count)
			b.Bytes(v.raw)
		case opAppendInt32s:
			for range count {
				v.i32s = append(v.i32s, int32(binary.LittleEndian.Uint32(take(4))))
			}
			b.Int32s(v.i32s)
		case opInt64s, opAppendFloat64s:
			for range count {
				v.u64s = append(v.u64s, binary.LittleEndian.Uint64(take(8)))
			}
			if v.op == opInt64s {
				vals := make([]int64, count)
				for i, u := range v.u64s {
					vals[i] = int64(u)
				}
				b.Int64s(vals)
			} else {
				vals := make([]float64, count)
				for i, u := range v.u64s {
					vals[i] = math.Float64frombits(u)
				}
				b.Float64s(vals)
			}
		case opDone:
			continue // nothing to write
		}
		wrote = append(wrote, v)
	}
	b.SetInt32(0, int32(b.Len()-4))

	outer := NewReader(b.Raw())
	r := NewReader(outer.BytesNoCopy())
	outer.Done() // the patched prefix frames everything that follows it
	for i, v := range wrote {
		ok := true
		switch v.op {
		case opByte:
			ok = uint64(r.Byte()) == v.u64
		case opInt32:
			ok = uint64(uint32(r.Int32())) == v.u64
		case opInt64:
			ok = uint64(r.Int64()) == v.u64
		case opFloat64:
			ok = math.Float64bits(r.Float64()) == v.u64
		case opBytesNoCopy:
			ok = bytes.Equal(r.BytesNoCopy(), v.raw)
		case opAppendInt32s:
			ok = slices.Equal(r.AppendInt32s(nil), v.i32s)
		case opInt64s:
			got := r.Int64s()
			ok = len(got) == len(v.u64s)
			for j := range min(len(got), len(v.u64s)) {
				ok = ok && uint64(got[j]) == v.u64s[j]
			}
		case opAppendFloat64s:
			got := r.AppendFloat64s(nil)
			ok = len(got) == len(v.u64s)
			for j := range min(len(got), len(v.u64s)) {
				ok = ok && math.Float64bits(got[j]) == v.u64s[j]
			}
		}
		if !ok {
			t.Fatalf("value %d (op %d) read back different from what was written", i, v.op)
		}
	}
	r.Done()
}
