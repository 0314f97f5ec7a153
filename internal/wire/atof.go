package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// parseFloat converts the JSON number at the front of b in the one pass that
// checks it, and reports how many bytes it spans. The grammar is number()'s —
// an optional minus, no leading zeros, digits on both sides of a point,
// digits in an exponent — and the value is strconv.ParseFloat's by bits,
// because the conversion takes strconv's own steps under strconv's own entry
// conditions: the literal is read into at most 19 significant digits and a
// decimal exponent, then converted exactly in float64 arithmetic (Clinger's
// fast path) where that is exact, else by Eisel–Lemire (Lemire, "Number
// Parsing at a Gigabyte per Second", 2021). Only a literal with a non-zero
// digit past its 19th significant one, or one Eisel–Lemire declines (a
// halfway case, a subnormal, an overflow), goes to strconv.ParseFloat itself,
// which is therefore still what refuses a literal: ok is false exactly when b
// does not start with a number or strconv reports an error (1e999).
//
// The significant digits are read eight a step, as the same paper reads
// them: from the first significant digit, while eight more bytes are digits
// (eightDigits) and the step keeps at most 19 digits, the run is converted
// by eightDigitsValue; whatever is left — a shorter run, the digits past the
// 19th that only decide truncation, the leading zeros after a point — goes
// a digit at a time. The steps move no digit across the 19-digit line, so
// the mantissa, the count and the truncation flag are the one-digit loop's.
// FuzzParseFloatMatchesStrconv holds the two together.
func parseFloat(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	// man holds the first maxMantDigits significant digits; nd counts every
	// significant digit and dp places the point after the nd-th of them.
	var man uint64
	nd, ndMant, dp := 0, 0, 0
	trunc := false // a non-zero digit was dropped
	switch {
	case i >= len(b):
		return 0, 0, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i, man, nd, ndMant = eightDigitSteps(b, i, man, nd, ndMant)
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			nd++
			if ndMant < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				ndMant++
			} else if b[i] != '0' {
				trunc = true
			}
		}
		dp = nd
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		lo := i
		if nd == 0 {
			for ; i < len(b) && b[i] == '0'; i++ { // zeros before the first significant digit
				dp--
			}
		}
		i, man, nd, ndMant = eightDigitSteps(b, i, man, nd, ndMant)
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if b[i] == '0' && nd == 0 { // a zero before the first significant digit
				dp--
				continue
			}
			nd++
			if ndMant < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				ndMant++
			} else if b[i] != '0' {
				trunc = true
			}
		}
		if i == lo {
			return 0, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		lo, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // as strconv: far enough out of range either way
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == lo {
			return 0, 0, false
		}
		dp += sign * e
	}
	exp := 0
	if man != 0 {
		exp = dp - ndMant
	}
	if !trunc {
		if f, ok := clinger(man, exp, neg); ok {
			return f, i, true
		}
		if f, ok := eiselLemire(man, exp, neg); ok {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, i, err == nil
}

// maxMantDigits is strconv's: 10^19 fits in a uint64.
const maxMantDigits = 19

// eightDigitSteps reads the significant digits from b[i] into man eight a
// step, while eight more are digits and the mantissa stays within
// maxMantDigits, and returns where it stopped with the counts moved on. b[i]
// is a significant digit or no digit at all.
func eightDigitSteps(b []byte, i int, man uint64, nd, ndMant int) (int, uint64, int, int) {
	for ndMant+8 <= maxMantDigits && i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + eightDigitsValue(v)
		nd, ndMant, i = nd+8, ndMant+8, i+8
	}
	return i, man, nd, ndMant
}

// eightDigits reports whether the eight bytes of v, loaded little-endian,
// are all ASCII digits: a byte c passes only if both c and c+6 have the high
// nibble 3. A byte ≥ 0xFA carries into its neighbour but fails itself.
func eightDigits(v uint64) bool {
	return v&(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 == 0x3030303030303030
}

// eightDigitsValue is the value of eight ASCII digits loaded little-endian
// (the first digit in the low byte), in three multiplications: pairs of
// digits, then pairs of pairs, then the two halves (Lemire 2021).
func eightDigitsValue(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	const mul1 = 100 + 1000000<<32
	const mul2 = 1 + 10000<<32
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return (v&mask*mul1 + v>>16&mask*mul2) >> 32
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// clinger converts man·10^exp in float64 arithmetic when that is correctly
// rounded: man is exact below 2^52, a power of ten up to 10^22, so one
// multiplication or division rounds once. A larger exponent is tried by
// first moving zeros into man while it stays at most 10^15.
func clinger(man uint64, exp int, neg bool) (float64, bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		if exp > 22 {
			f *= exactPow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * exactPow10[exp], true
	case exp < 0 && exp >= -22:
		return f / exactPow10[-exp], true
	}
	return 0, false
}

// eiselLemire converts man·10^exp10 through a 128-bit product with a
// truncated power of ten, or declines when the truncation could decide the
// rounding or the result is subnormal or out of range. The steps and their
// names follow Nigel Tao's account of the algorithm
// (https://nigeltao.github.io/blog/2020/eisel-lemire.html), as strconv does.
// man is not zero: clinger converts every zero.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10Min]

	// Normalization: man's top bit set; the binary exponent estimated from
	// log2(10) ≈ 217706/2^16.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// Multiplication by the high half, and by the low half only when the
	// high half's product may carry into the bits that decide the result.
	hi, lo := bits.Mul64(man, pow.hi)
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow.lo)
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Shifting to 54 bits.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// A product exactly halfway between two float64s cannot be rounded from
	// a truncated power.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Rounding from 54 to 53 bits, half to even, carrying into the exponent.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 (or a wrap below it) is subnormal, 0x7FF and up
	// is Inf or NaN, and both go to strconv.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// pow10Table spans the decimal exponents Eisel–Lemire converts.
const pow10Min, pow10Max = -348, 347

// pow10Table[e-pow10Min] is 10^e normalised to [2^127, 2^128) and truncated
// to 128 bits — strconv's detailedPowersOfTen, entry for entry — computed
// once rather than listed.
var pow10Table = powersOfTen()

func powersOfTen() *[pow10Max - pow10Min + 1]struct{ hi, lo uint64 } {
	t := new([pow10Max - pow10Min + 1]struct{ hi, lo uint64 })
	mask := new(big.Int).SetUint64(math.MaxUint64)
	set := func(e int, q *big.Int) {
		t[e-pow10Min].lo = new(big.Int).And(q, mask).Uint64()
		t[e-pow10Min].hi = new(big.Int).Rsh(q, 64).Uint64()
	}
	ten := big.NewInt(10)
	p := big.NewInt(1)
	for e := 0; e <= pow10Max; e++ {
		q := new(big.Int)
		if n := p.BitLen(); n > 128 {
			q.Rsh(p, uint(n-128))
		} else {
			q.Lsh(p, uint(128-n))
		}
		set(e, q)
		p.Mul(p, ten)
	}
	// 10^-e is 2^(127+n) / 10^e, truncated, for the bit length n of 10^e:
	// the quotient lies in [2^127, 2^128) because 10^e is not a power of 2.
	p.SetInt64(10)
	for e := -1; e >= pow10Min; e-- {
		q := new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
		set(e, q.Quo(q, p))
		p.Mul(p, ten)
	}
	return t
}
