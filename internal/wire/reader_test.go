package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The frame reader's length check multiplies instead of dividing. It must
// accept and reject exactly the counts v > rem/elemSize rejects, for every
// element size the decoders pass, with rem on either side of each multiple
// of the element size and v from 0 past the bound up to the values whose
// product wraps uint64.
func TestCountMatchesDivision(t *testing.T) {
	huge := []uint64{1 << 32, 1<<61 - 1, 1 << 61, 1<<62 + 1, 1 << 63, math.MaxUint64 / 5, math.MaxUint64/5 + 1, math.MaxUint64}
	for _, elemSize := range []int{1, 2, 5, 8} {
		for rem := 0; rem <= 6*elemSize+2; rem++ {
			bound := uint64(rem / elemSize)
			vs := append([]uint64{0, 1, 127, 128}, huge...)
			for d := uint64(0); d <= 2; d++ {
				vs = append(vs, bound+d)
				if bound >= d {
					vs = append(vs, bound-d)
				}
			}
			for _, v := range vs {
				b := binary.AppendUvarint(nil, v)
				b = append(b, make([]byte, rem)...)
				r := &reader{b: b}
				got := r.count(elemSize)
				if wantReject := v > uint64(rem)/uint64(elemSize); wantReject {
					if !errors.Is(r.err, ErrTooLarge) || got != 0 {
						t.Errorf("elemSize %d rem %d v %d: count = %d, err %v; want ErrTooLarge", elemSize, rem, v, got, r.err)
					}
				} else if r.err != nil || uint64(got) != v {
					t.Errorf("elemSize %d rem %d v %d: count = %d, err %v; want %d accepted", elemSize, rem, v, got, r.err, v)
				}
			}
		}
	}
}

// The reader's one-byte fast path must not change what a varint decodes
// to: every input — 1 to 10 bytes, overlong forms, truncations, 10-byte
// overflows, runs of continuation bytes past 10 — reads as binary.Uvarint
// reads it, the failures as ErrTruncated, and the position moves by the
// bytes consumed.
func TestUvarintMatchesBinary(t *testing.T) {
	var inputs [][]byte
	for bits := 0; bits <= 64; bits++ {
		for _, v := range []uint64{1<<bits - 1, 1 << bits, 1<<bits + 1} {
			if bits == 64 && v != math.MaxUint64 {
				continue
			}
			enc := binary.AppendUvarint(nil, v)
			for cut := 0; cut <= len(enc); cut++ {
				inputs = append(inputs, enc[:cut])
			}
			inputs = append(inputs, append(enc, 0x05))
		}
	}
	for n := 1; n <= 12; n++ { // overlong zeros and continuation runs
		cont := make([]byte, n)
		for i := range cont {
			cont[i] = 0x80
		}
		inputs = append(inputs, cont, append(cont, 0x00), append(cont, 0x01), append(cont, 0x02), append(cont, 0x7f))
	}
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
			if rng.Intn(3) > 0 {
				b[i] |= 0x80
			}
		}
		inputs = append(inputs, b)
	}
	for _, in := range inputs {
		want, n := binary.Uvarint(in)
		r := &reader{b: in}
		got := r.uvarint()
		switch {
		case n <= 0:
			if !errors.Is(r.err, ErrTruncated) || got != 0 || r.off != 0 {
				t.Errorf("% x: uvarint = %d at %d, err %v; binary.Uvarint fails (n=%d)", in, got, r.off, r.err, n)
			}
		case r.err != nil || got != want || r.off != n:
			t.Errorf("% x: uvarint = %d at %d, err %v; binary.Uvarint = %d, %d bytes", in, got, r.off, r.err, want, n)
		}
	}
}
