package fp16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},                 // max finite half
		{6.103515625e-05, 0x0400},       // smallest normal half
		{5.960464477539063e-08, 0x0001}, // smallest subnormal half
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.h {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := ToFloat32(c.h); got != c.f {
			t.Errorf("ToFloat32(%#04x) = %g, want %g", c.h, got, c.f)
		}
	}
}

func TestNegativeZero(t *testing.T) {
	h := FromFloat32(float32(math.Copysign(0, -1)))
	if h != 0x8000 {
		t.Fatalf("-0 → %#04x", h)
	}
	if f := ToFloat32(h); !math.Signbit(float64(f)) || f != 0 {
		t.Fatalf("round trip of -0: %g", f)
	}
}

func TestNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if h&0x7C00 != 0x7C00 || h&0x3FF == 0 {
		t.Fatalf("NaN encoded as %#04x", h)
	}
	if f := ToFloat32(h); !math.IsNaN(float64(f)) {
		t.Fatalf("NaN round trip gave %g", f)
	}
}

func TestOverflowToInf(t *testing.T) {
	if h := FromFloat32(1e6); h != 0x7C00 {
		t.Fatalf("1e6 → %#04x, want +Inf", h)
	}
	if h := FromFloat32(-1e6); h != 0xFC00 {
		t.Fatalf("-1e6 → %#04x, want -Inf", h)
	}
}

func TestUnderflowToZero(t *testing.T) {
	if h := FromFloat32(1e-10); h != 0 {
		t.Fatalf("1e-10 → %#04x, want 0", h)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and the next half
	// (1+2^-10); ties round to even (stay at 1, mantissa 0).
	f := float32(1) + float32(math.Pow(2, -11))
	if h := FromFloat32(f); h != 0x3C00 {
		t.Errorf("halfway tie rounded to %#04x, want 0x3C00 (even)", h)
	}
	// Slightly above halfway rounds up.
	f = float32(1) + float32(math.Pow(2, -11)) + float32(math.Pow(2, -13))
	if h := FromFloat32(f); h != 0x3C01 {
		t.Errorf("above-halfway rounded to %#04x, want 0x3C01", h)
	}
}

// Exhaustive conformance: every one of the 65536 half values —
// including every NaN payload, now that FromFloat32 preserves
// payloads that survive the truncation — round-trips
// ToFloat32→FromFloat32 bit-identically.
func TestPropertyHalfRoundTrip(t *testing.T) {
	for h := 0; h <= 0xFFFF; h++ {
		u := uint16(h)
		f := ToFloat32(u)
		if got := FromFloat32(f); got != u {
			t.Fatalf("half %#04x → %g → %#04x", u, f, got)
		}
	}
}

// refFromFloat32 is an independent float64 math-based reference for
// the float32→binary16 conversion: round-to-nearest-even via
// math.RoundToEven on exactly-scaled values, explicit subnormal and
// overflow→Inf handling. NaN is excluded (payload propagation is
// pinned separately by TestNaNPayloadRoundTrip).
func refFromFloat32(v float32) uint16 {
	f := float64(v)
	sign := uint16(0)
	if math.Signbit(f) {
		sign = signMask16
	}
	a := math.Abs(f)
	switch {
	case math.IsInf(f, 0) || a >= 65520: // ≥ max-finite + ½ulp ties to even → Inf
		return sign | expMask16
	case a == 0:
		return sign
	case a < math.Ldexp(1, -14): // subnormal half (or underflow to zero)
		// Scaling by 2^24 is exact for float32 inputs, so RoundToEven
		// decides the subnormal mantissa directly. A result of exactly
		// 1024 is the smallest normal, whose encoding (exp=1, frac=0)
		// the plain bit-or produces.
		return sign | uint16(math.RoundToEven(math.Ldexp(a, 24)))
	}
	e := math.Ilogb(a) // in [-14, 15]
	m := math.RoundToEven(math.Ldexp(a, 10-e))
	if m == 2048 { // mantissa rounded up across the binade
		e++
		m = 1024
		if e > 15 {
			return sign | expMask16
		}
	}
	return sign | uint16(e+15)<<10 | uint16(m-1024)
}

// Property: FromFloat32 matches the float64 reference on arbitrary
// float32 bit patterns (normals, subnormals, overflow, underflow),
// and NaNs stay NaN.
func TestPropertyMatchesFloat64Reference(t *testing.T) {
	f := func(bits uint32) bool {
		v := math.Float32frombits(bits)
		got := FromFloat32(v)
		if math.IsNaN(float64(v)) {
			return got&expMask16 == expMask16 && got&fracMask16 != 0
		}
		return got == refFromFloat32(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	// The random sweep rarely lands on exact boundaries; pin them.
	for _, v := range []float32{
		65504, 65519.99, 65520, 65536, -65520,
		6.103515625e-05, 6.097555160522461e-05, // smallest normal, just below
		5.960464477539063e-08, 2.9802322387695312e-08, // smallest subnormal, its halfway tie
		1e-10, 0, float32(math.Inf(1)), float32(math.Inf(-1)),
	} {
		if got, want := FromFloat32(v), refFromFloat32(v); got != want {
			t.Errorf("FromFloat32(%g) = %#04x, reference %#04x", v, got, want)
		}
	}
}

// NaN payloads that survive the 13-bit truncation must come through
// FromFloat32 unchanged — the conversion must not OR stray bits into
// them (the old code forced 0x200|1 onto every NaN).
func TestNaNPayloadRoundTrip(t *testing.T) {
	for _, payload := range []uint16{0x001, 0x123, 0x200, 0x3FF} {
		want := uint16(0x7C00 | payload)
		f := math.Float32frombits(0x7F800000 | uint32(payload)<<13)
		if got := FromFloat32(f); got != want {
			t.Errorf("NaN payload %#03x encoded as %#04x, want %#04x", payload, got, want)
		}
		// And the full half→float32→half trip is the identity.
		if got := FromFloat32(ToFloat32(want)); got != want {
			t.Errorf("NaN half %#04x round-tripped to %#04x", want, got)
		}
	}
	// A NaN whose payload truncates to zero must gain the quiet bit —
	// without it the result would decode as Inf.
	f := math.Float32frombits(0x7F800001) // signalling NaN, tiny payload
	if got := FromFloat32(f); got != 0x7E00 {
		t.Errorf("truncated-to-zero NaN payload encoded as %#04x, want 0x7E00", got)
	}
}

// Property: conversion error is within half a ULP of binary16 for
// in-range values.
func TestPropertyQuantisationError(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.Abs(float64(v)) > 65000 || (v != 0 && math.Abs(float64(v)) < 1e-4) {
			return true // outside the interesting range
		}
		q := ToFloat32(FromFloat32(v))
		relErr := math.Abs(float64(q-v)) / math.Max(math.Abs(float64(v)), 1e-8)
		return relErr <= 1.0/1024 // 2^-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeSlice(t *testing.T) {
	buf := []float32{1, 1.0002, -3.14159, 0}
	Quantize(buf)
	if buf[0] != 1 || buf[3] != 0 {
		t.Fatal("exact values changed")
	}
	if buf[1] == 1.0002 {
		t.Fatal("inexact value not quantised")
	}
}

func TestEncodeDecode(t *testing.T) {
	src := []float32{1, 2, -0.5}
	enc := make([]uint16, 3)
	if err := Encode(src, enc); err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 3)
	if err := Decode(enc, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("encode/decode changed exact value %g → %g", src[i], dst[i])
		}
	}
}

// Short destinations are caller bugs reported as errors, not panics —
// the nopanic convention the collective stack relies on to unwind a
// multi-rank world cleanly.
func TestEncodeDecodeShortDestination(t *testing.T) {
	src := []float32{1, 2, -0.5}
	if err := Encode(src, make([]uint16, 1)); err == nil {
		t.Error("Encode accepted a short destination")
	}
	if err := Decode(make([]uint16, 3), make([]float32, 2)); err == nil {
		t.Error("Decode accepted a short destination")
	}
	// Oversized destinations are fine; extra words are untouched.
	dst := make([]uint16, 5)
	if err := Encode(src, dst); err != nil {
		t.Fatal(err)
	}
	if dst[3] != 0 || dst[4] != 0 {
		t.Error("Encode wrote past the source length")
	}
}

// TestCastAllocBudget pins every binary16 cast at zero steady-state
// allocations, on a gradient-like buffer of 2²⁰ elements, and Encode
// once more on a copy salted with values that have no finite half
// (overflow, ±Inf, NaN: an overflowing loss scale's gradients). Each
// runs once per fused buffer per step on the allreduce path, so one
// allocation a call would be one per buffer per step.
func TestCastAllocBudget(t *testing.T) {
	src := gradientLike(benchElems)
	salted := append([]float32(nil), src...)
	for i, v := range []float32{1e6, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		for j := i; j < len(salted); j += 97 {
			salted[j] = v
		}
	}
	halves := scaledHalves(t)
	f := make([]float32, benchElems)
	h := make([]uint16, benchElems)
	for _, row := range []struct {
		name string
		call func() error
	}{
		{"Encode", func() error { return Encode(src, h) }},
		{"Encode_nonfinite", func() error { return Encode(salted, h) }},
		{"EncodeScaled", func() error { return EncodeScaled(src, h, 1024) }},
		{"Decode", func() error { return Decode(halves, f) }},
		{"DecodeScaled", func() error { _, err := DecodeScaled(halves, f, 0.5, 1.0/1024); return err }},
		{"AddInto", func() error { return AddInto(h, halves) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			if err := row.call(); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(2, func() { _ = row.call() }); got != 0 {
				t.Errorf("allocates %.1f times per call, pinned at 0", got)
			}
		})
	}
}
