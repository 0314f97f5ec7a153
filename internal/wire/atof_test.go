package wire

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// refParseFloat is what parseFloat is held to: number()'s grammar, then
// strconv.ParseFloat on the literal. number() skips leading
// whitespace, which parseFloat's caller has already consumed, so a literal
// that does not start at b[0] is refused here.
func refParseFloat(b []byte) (float64, int, bool) {
	s := scanner{b: b}
	lit, _ := s.number()
	if s.bad || s.off != len(lit) {
		return 0, 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, 0, false
	}
	return f, len(lit), true
}

// mismatchParseFloat compares parseFloat with refParseFloat on b — the
// refusal, the end offset and the bits of the value — and describes the
// first difference, or returns "".
func mismatchParseFloat(b []byte) string {
	f, n, ok := parseFloat(b)
	rf, rn, rok := refParseFloat(b)
	switch {
	case ok != rok:
		return fmt.Sprintf("%q: ok %v, strconv %v", b, ok, rok)
	case !ok:
	case n != rn:
		return fmt.Sprintf("%q: ends at %d, strconv at %d", b, n, rn)
	case math.Float64bits(f) != math.Float64bits(rf):
		return fmt.Sprintf("%q: %v (%#016x), strconv %v (%#016x)", b, f, math.Float64bits(f), rf, math.Float64bits(rf))
	}
	return ""
}

// TestPowersOfTenTable spot-checks the computed table against entries of
// strconv's listed one (the first, the last, 10^0, 10^-1 and the 10^43 its
// comment spells out).
func TestPowersOfTenTable(t *testing.T) {
	for _, c := range []struct {
		e      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10Table[c.e-pow10Min]; got.hi != c.hi || got.lo != c.lo {
			t.Errorf("1e%d: %#016x %#016x, want %#016x %#016x", c.e, got.hi, got.lo, c.hi, c.lo)
		}
	}
}

// FuzzParseFloatMatchesStrconv: on any bytes parseFloat refuses what
// number() and strconv.ParseFloat refuse, ends where number() ends, and
// returns strconv's bits.
func FuzzParseFloatMatchesStrconv(f *testing.F) {
	for _, seed := range []string{
		"9007199254740993", "-9007199254740993", "2.5", "0.1", // halfway and plain
		"1234567890123456789", "12345678901234567891", "12345678901234567890000", // 19, 20, 20 + zeros
		"1.2345678901234567890000e10", "9999999999999999999", "18446744073709551616",
		"4.9e-324", "2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623159e308",
		"-0", "-0.0", "0e999", "1e-400", "1e007", "1e999", "-4.241992688398962e+40",
		"0.000000000000000000000000000000000001", "1.000000000000000000000000000000000001",
		"100000000000000000000000000000000000000000e-42",
		"01", "1.", "-", ".5", "1e", "1.e5", "+1", "2.5E+3,", " 1",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if msg := mismatchParseFloat(b); msg != "" {
			t.Fatal(msg)
		}
	})
}
