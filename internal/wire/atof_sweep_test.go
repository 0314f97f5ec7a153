//go:build !race

// The converter's sweep: millions of conversions of one sequential function,
// where the race detector has nothing to find and multiplies the run time
// sevenfold, so the file is excluded under -race.

package wire

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestParseFloatMatchesStrconv sweeps random float64 bit patterns through
// every format a JSON encoder may choose — shortest 'g', 'e' to 25
// significant digits (past the 19 the converter keeps, so the strconv
// fallback runs too), 'f' to 30 decimals (long zero runs on both sides of
// the point) — each followed by one of the bytes that may end a number in a
// body, none included, so the end offset is held as well as the bits. The
// 'e' and 'f' literals are rounded from each value's exact decimal expansion
// (appendFixed), which strconv.AppendFloat matches on the first patterns.
// The first patterns' digits also take the shapes the eight-digit step
// meets at its edges (digitShapes).
func TestParseFloatMatchesStrconv(t *testing.T) {
	const patterns, formatChecked, shaped = 100_000, 500, 10_000
	rng := rand.New(rand.NewSource(1))
	tails := []string{"", ",", "]", "}", " ", "\n", "."}
	var buf, lit []byte
	check := func(lit []byte) {
		buf = append(append(buf[:0], lit...), tails[rng.Intn(len(tails))]...)
		if msg := mismatchParseFloat(buf); msg != "" {
			t.Fatal(msg)
		}
	}
	for i := range patterns {
		v := math.Float64frombits(rng.Uint64())
		check(strconv.AppendFloat(lit[:0], v, 'g', -1, 64))
		digits, dp := exactDecimal(v)
		if i < shaped {
			for _, shape := range digitShapes(digits) {
				check(shape)
			}
		}
		for _, c := range []struct {
			fmt     byte
			maxPrec int
		}{{'e', 24}, {'f', 30}} {
			for prec := 0; prec <= c.maxPrec; prec++ {
				lit = appendFixed(lit[:0], v, digits, dp, c.fmt, prec)
				if i < formatChecked {
					if want := strconv.FormatFloat(v, c.fmt, prec, 64); string(lit) != want {
						t.Fatalf("appendFixed(%v, %c, %d) = %s, strconv %s", v, c.fmt, prec, lit, want)
					}
				}
				check(lit)
			}
		}
	}
}

// digitShapes are literals of the first 1 to 24 of digits, in the shapes
// that put the eight-digit step at its edges: an integer run (an eight-digit
// run that ends the literal, or a comma tail's "12345678,"; a run that
// straddles the 19th significant digit; 20 digits and up, the truncation
// path), the same digits behind nine zeros after a point, and a mantissa
// with an exponent inside the step's window ("1.2345678e5"). And a negative
// zero with eight zeros after its point.
func digitShapes(digits []byte) [][]byte {
	shapes := [][]byte{[]byte("-0.00000000")}
	if len(digits) == 0 {
		return shapes
	}
	for len(digits) < 24 {
		digits = append(digits, digits...)
	}
	for k := 1; k <= 24; k++ {
		run := digits[:k]
		shapes = append(shapes,
			run,
			append([]byte("0.000000000"), run...),
			append(append(append([]byte{run[0], '.'}, run[1:]...), 'e'), '5'))
	}
	return shapes
}

// exactDecimal is |v|'s exact decimal expansion, 0.digits × 10^dp, without
// trailing zeros; zero, Inf and NaN have no digits.
func exactDecimal(v float64) (digits []byte, dp int) {
	b := math.Float64bits(v)
	e, man := int(b>>52&0x7FF), b&(1<<52-1)
	switch e {
	case 0x7FF:
		return nil, 0
	case 0:
		e = 1
	default:
		man |= 1 << 52
	}
	if man == 0 {
		return nil, 0
	}
	e -= 1023 + 52
	n := new(big.Int).SetUint64(man)
	if e >= 0 {
		n.Lsh(n, uint(e))
	} else { // man / 2^-e = man·5^-e / 10^-e
		n.Mul(n, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(-e)), nil))
	}
	digits = []byte(n.String())
	dp = len(digits)
	if e < 0 {
		dp += e
	}
	return bytes.TrimRight(digits, "0"), dp
}

// appendFixed appends strconv.FormatFloat(v, fmt, prec, 64) for fmt 'e' or
// 'f', rounding v's exact expansion to nearest, ties to even, as strconv does.
func appendFixed(dst []byte, v float64, digits []byte, dp int, fmt byte, prec int) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return strconv.AppendFloat(dst, v, fmt, prec, 64)
	}
	keep := prec + 1 // significant digits
	if fmt == 'f' {
		keep = dp + prec
	}
	var d []byte // the rounded digits, trailing zeros implied
	switch {
	case keep < 0 || len(digits) == 0:
	case keep >= len(digits):
		d = digits
	case digits[keep] > '5' || digits[keep] == '5' && (keep+1 < len(digits) || keep > 0 && (digits[keep-1]-'0')%2 == 1):
		d = append([]byte(nil), digits[:keep]...)
		i := len(d) - 1
		for ; i >= 0 && d[i] == '9'; i-- {
		}
		if i < 0 {
			d, dp = []byte{'1'}, dp+1
		} else {
			d[i]++
			d = d[:i+1]
		}
	default:
		d = digits[:keep]
	}
	digit := func(j int) byte {
		if 0 <= j && j < len(d) {
			return d[j]
		}
		return '0'
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	if fmt == 'e' {
		dst = append(dst, digit(0))
		if prec > 0 {
			dst = append(dst, '.')
			for j := 1; j <= prec; j++ {
				dst = append(dst, digit(j))
			}
		}
		exp := dp - 1
		if len(d) == 0 {
			exp = 0
		}
		dst = append(dst, 'e', '+')
		if exp < 0 {
			dst[len(dst)-1], exp = '-', -exp
		}
		if exp < 10 {
			dst = append(dst, '0')
		}
		return strconv.AppendInt(dst, int64(exp), 10)
	}
	if dp <= 0 || len(d) == 0 {
		dst = append(dst, '0')
	} else {
		for j := range dp {
			dst = append(dst, digit(j))
		}
	}
	if prec > 0 {
		dst = append(dst, '.')
		for j := range prec {
			dst = append(dst, digit(dp+j))
		}
	}
	return dst
}
