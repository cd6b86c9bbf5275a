package fp16

import (
	"math"
	"testing"
)

// FuzzRoundTrip checks the binary16 conversion invariants on
// arbitrary float32 inputs: quantisation is idempotent and
// order-preserving, and no input can panic the converters.
func FuzzRoundTrip(f *testing.F) {
	f.Add(float32(0))
	f.Add(float32(1))
	f.Add(float32(-65504))
	f.Add(float32(1e-8))
	f.Add(float32(math.Inf(1)))
	f.Add(float32(math.NaN()))

	f.Fuzz(func(t *testing.T, v float32) {
		if got, want := FromFloat32(v), oracleFromFloat32(v); got != want {
			t.Fatalf("FromFloat32(%x) = %#04x, oracle %#04x", math.Float32bits(v), got, want)
		}
		q := ToFloat32(FromFloat32(v))
		// Encode/Decode must agree bit-for-bit with Quantize: one is
		// the wire path, the other the in-place precision model, and
		// the compressed-allreduce tests assume they are the same
		// rounding.
		var enc [1]uint16
		var dec [1]float32
		if err := Encode([]float32{v}, enc[:]); err != nil {
			t.Fatal(err)
		}
		if enc[0] != FromFloat32(v) {
			t.Fatalf("Encode(%g) = %#04x, FromFloat32 = %#04x", v, enc[0], FromFloat32(v))
		}
		if err := Decode(enc[:], dec[:]); err != nil {
			t.Fatal(err)
		}
		qs := [1]float32{v}
		Quantize(qs[:])
		if math.Float32bits(dec[0]) != math.Float32bits(qs[0]) {
			t.Fatalf("decode(encode(%g)) = %x, Quantize = %x",
				v, math.Float32bits(dec[0]), math.Float32bits(qs[0]))
		}
		if math.IsNaN(float64(v)) {
			if !math.IsNaN(float64(q)) {
				t.Fatalf("NaN %x lost: %g", math.Float32bits(v), q)
			}
			return
		}
		// Idempotence: quantising twice changes nothing.
		q2 := ToFloat32(FromFloat32(q))
		if q2 != q {
			t.Fatalf("not idempotent: %g → %g → %g", v, q, q2)
		}
		// Sign preservation (except the underflow-to-zero region,
		// which keeps the sign bit on ±0).
		if v > 0 && math.Signbit(float64(q)) {
			t.Fatalf("positive %g became negative %g", v, q)
		}
		if v < 0 && q > 0 {
			t.Fatalf("negative %g became positive %g", v, q)
		}
	})
}

// FuzzHalfBits checks that ToFloat32 tolerates every 16-bit pattern
// and that FromFloat32∘ToFloat32 is identity on non-NaN halves.
func FuzzHalfBits(f *testing.F) {
	f.Add(uint16(0))
	f.Add(uint16(0x3C00))
	f.Add(uint16(0x7C00))
	f.Add(uint16(0xFFFF))

	f.Fuzz(func(t *testing.T, h uint16) {
		v := ToFloat32(h)
		if want := oracleToFloat32(h); math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("ToFloat32(%#04x) = %x, oracle %x", h, math.Float32bits(v), math.Float32bits(want))
		}
		if h&0x7C00 == 0x7C00 && h&0x3FF != 0 && !math.IsNaN(float64(v)) {
			t.Fatalf("NaN pattern %#04x decoded to %g", h, v)
		}
		// Identity on every pattern — NaN payloads survive the trip
		// too, since FromFloat32 preserves payloads that outlive the
		// truncation.
		if got := FromFloat32(v); got != h {
			t.Fatalf("half %#04x → %g → %#04x", h, v, got)
		}
	})
}

// Quantize rounds every element through binary16 in place, one
// scalar conversion at a time — the oracle the slice kernels'
// round trip must match bit for bit.
func Quantize(buf []float32) {
	for i, v := range buf {
		buf[i] = ToFloat32(FromFloat32(v))
	}
}

// FromFloat32 and ToFloat32 convert one value with the pieces the
// slice kernels inline: finiteHalf or specialHalf one way, the decode
// table the other. The tests pin them to the oracle scalar by scalar.

// FromFloat32 converts a float32 to its nearest binary16
// representation (round-to-nearest-even; overflow becomes ±Inf).
func FromFloat32(f float32) uint16 {
	b := math.Float32bits(f)
	if hasNoFiniteHalf(b) {
		return specialHalf(b)
	}
	return finiteHalf(b)
}

// ToFloat32 converts a binary16 value to float32 exactly.
func ToFloat32(h uint16) float32 {
	return decodeTab()[h]
}
