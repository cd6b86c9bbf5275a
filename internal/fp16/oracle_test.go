package fp16

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The oracle: the scalar, branch-per-class conversions the package
// shipped before the branch-free kernels replaced them. They are kept
// because they are the definition the goldens were cut against — one
// case per IEEE class, each obviously right on inspection — while the
// kernels are the kind of code that is only right if every constant
// is. Every kernel is pinned to them bit for bit below.

func oracleFromFloat32(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & signMask16
	exp := int32(bits>>23) & 0xFF
	frac := bits & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf / NaN
		if frac != 0 {
			payload := uint16(frac >> 13)
			if payload == 0 {
				payload = 0x200
			}
			return sign | expMask16 | payload
		}
		return sign | expMask16
	case exp == 0 && frac == 0:
		return sign // ±0
	}

	e := exp - 127
	switch {
	case e > 15: // overflow → ±Inf
		return sign | expMask16
	case e >= -14: // normal half
		half := sign | uint16(e+15)<<10 | uint16(frac>>13)
		rem := frac & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // may carry into exponent; that is correct rounding
		}
		return half
	case e >= -25: // subnormal half (e = -25 can still round up to it)
		mant := frac | 0x800000
		shift := uint32(-e - 14 + 13)
		half := sign | uint16(mant>>shift)
		rem := mant & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return half
	default: // underflow → ±0
		return sign
	}
}

func oracleToFloat32(h uint16) float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h&expMask16) >> 10
	frac := uint32(h & fracMask16)

	switch {
	case exp == 0x1F: // Inf / NaN
		return math.Float32frombits(sign | 0x7F800000 | frac<<13)
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign) // ±0
		}
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= fracMask16
		return math.Float32frombits(sign | e<<23 | frac<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | frac<<13)
	}
}

// checkEncode runs one batch of bit patterns through FromFloat32,
// Encode and EncodeScaled and compares each against the oracle.
func checkEncode(t *testing.T, bits []uint32, src []float32, got []uint16) {
	t.Helper()
	for i, b := range bits {
		src[i] = math.Float32frombits(b)
	}
	src, got = src[:len(bits)], got[:len(bits)]
	if err := Encode(src, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		want := oracleFromFloat32(src[i])
		if got[i] != want {
			t.Fatalf("Encode(%#08x) = %#04x, oracle %#04x", b, got[i], want)
		}
		if h := FromFloat32(src[i]); h != want {
			t.Fatalf("FromFloat32(%#08x) = %#04x, oracle %#04x", b, h, want)
		}
	}
	// The scaled form against scale-then-oracle, at a scale the loss
	// scaler uses and one that pushes normals into the subnormal range.
	for _, scale := range []float32{1024, 1.0 / 4096} {
		if err := EncodeScaled(src, got, scale); err != nil {
			t.Fatal(err)
		}
		for i, b := range bits {
			if want := oracleFromFloat32(src[i] * scale); got[i] != want {
				t.Fatalf("EncodeScaled(%#08x, %g) = %#04x, oracle %#04x", b, scale, got[i], want)
			}
		}
	}
}

// boundaryMantissas are the 23-bit mantissas where rounding decisions
// change: the ends, and every tie and near-tie of the 13 bits a normal
// half drops and of the wider fields a subnormal half drops.
func boundaryMantissas() []uint32 {
	m := []uint32{0, 1, 0x7FFFFF, 0x7FFFFE, 0x400000, 0x3FFFFF, 0x400001}
	for shift := uint(12); shift <= 22; shift++ {
		tie := uint32(1) << shift
		for _, base := range []uint32{0, tie << 1, 0x7FFFFF &^ (tie<<1 - 1)} {
			for _, d := range []uint32{tie - 1, tie, tie + 1} {
				m = append(m, (base|d)&0x7FFFFF)
			}
		}
	}
	return m
}

// TestEncodeMatchesOracle pins the encode kernels to the oracle on
// every (sign, exponent) × boundary mantissa and on 2²⁴ random bit
// patterns.
func TestEncodeMatchesOracle(t *testing.T) {
	const batch = 1 << 16
	src := make([]float32, batch)
	got := make([]uint16, batch)
	bits := make([]uint32, 0, batch)
	flush := func() {
		checkEncode(t, bits, src, got)
		bits = bits[:0]
	}

	mants := boundaryMantissas()
	for se := uint32(0); se < 1<<9; se++ { // sign and 8-bit exponent
		for _, m := range mants {
			if bits = append(bits, se<<23|m); len(bits) == batch {
				flush()
			}
		}
	}
	flush()

	n := 1 << 24
	if testing.Short() {
		n = 1 << 20
	}
	r := rand.New(rand.NewSource(14))
	for i := 0; i < n; i += batch {
		for j := 0; j < batch; j++ {
			bits = append(bits, r.Uint32())
		}
		flush()
	}
}

// TestEncodeMatchesOracleExhaustive sweeps all 2³² float32 bit
// patterns through Encode, one slab per worker.
func TestEncodeMatchesOracleExhaustive(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full 2^32 sweep: skipped under -short and -race")
	}
	const batch = 1 << 20
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]float32, batch)
			got := make([]uint16, batch)
			for base := uint64(w) * batch; base < 1<<32; base += uint64(workers) * batch {
				for i := range src {
					src[i] = math.Float32frombits(uint32(base) + uint32(i))
				}
				if err := Encode(src, got); err != nil {
					t.Error(err)
					return
				}
				for i, v := range src {
					if want := oracleFromFloat32(v); got[i] != want {
						t.Errorf("Encode(%#08x) = %#04x, oracle %#04x", math.Float32bits(v), got[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeMatchesOracle checks ToFloat32, Decode and DecodeScaled on
// all 65 536 half-words, bit for bit (NaN payloads included).
func TestDecodeMatchesOracle(t *testing.T) {
	src := make([]uint16, 1<<16)
	for i := range src {
		src[i] = uint16(i)
	}
	got := make([]float32, len(src))
	if err := Decode(src, got); err != nil {
		t.Fatal(err)
	}
	const a, b = float32(1) / 3, float32(1) / 1024
	scaled := make([]float32, len(src))
	if _, err := DecodeScaled(src, scaled, a, b); err != nil {
		t.Fatal(err)
	}
	for i, h := range src {
		want := oracleToFloat32(h)
		if math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("Decode(%#04x) = %#08x, oracle %#08x", h, math.Float32bits(got[i]), math.Float32bits(want))
		}
		if f := ToFloat32(h); math.Float32bits(f) != math.Float32bits(want) {
			t.Fatalf("ToFloat32(%#04x) = %#08x, oracle %#08x", h, math.Float32bits(f), math.Float32bits(want))
		}
		if ws := want * a * b; math.Float32bits(scaled[i]) != math.Float32bits(ws) {
			t.Fatalf("DecodeScaled(%#04x) = %#08x, oracle %#08x", h, math.Float32bits(scaled[i]), math.Float32bits(ws))
		}
	}
}

// TestDecodeScaledVerdict: the verdict is true exactly when some word
// has an all-ones exponent, wherever it sits, and equals a scan of the
// decoded values.
func TestDecodeScaledVerdict(t *testing.T) {
	dst := make([]float32, 8)
	for h := 0; h <= 0xFFFF; h++ {
		for _, pos := range []int{0, 7} {
			src := []uint16{0x3C00, 0x0001, 0x7BFF, 0xFBFF, 0x8000, 0x0400, 0x7800, 0x3555}
			src[pos] = uint16(h)
			got, err := DecodeScaled(src, dst, 0.5, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := false
			for _, v := range dst {
				if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
					want = true
				}
			}
			if got != want || got != (uint16(h)&expMask16 == expMask16) {
				t.Fatalf("verdict for %#04x at %d = %v, scan says %v", h, pos, got, want)
			}
		}
	}
}

// TestAddIntoMatchesOracle checks the fused reduce hop against
// decode-add-encode through the oracle on 2²⁴ pairs: every pairing of
// the 64 (sign, exponent) classes with boundary and random mantissas,
// then uniformly random pairs.
func TestAddIntoMatchesOracle(t *testing.T) {
	n := 1 << 24
	if testing.Short() {
		n = 1 << 20
	}
	a := make([]uint16, 0, n)
	b := make([]uint16, 0, n)
	r := rand.New(rand.NewSource(15))
	mants := []uint16{0, 1, 2, 0x1FF, 0x200, 0x201, 0x3FE, 0x3FF}
	for ca := uint16(0); ca < 64; ca++ {
		for cb := uint16(0); cb < 64; cb++ {
			for _, ma := range mants {
				for _, mb := range mants {
					a = append(a, ca<<10|ma)
					b = append(b, cb<<10|mb)
				}
			}
			for k := 0; k < 64; k++ {
				a = append(a, ca<<10|uint16(r.Intn(1<<10)))
				b = append(b, cb<<10|uint16(r.Intn(1<<10)))
			}
		}
	}
	for len(a) < n {
		w := r.Uint32()
		a = append(a, uint16(w))
		b = append(b, uint16(w>>16))
	}
	dst := append([]uint16(nil), a...)
	if err := AddInto(dst, b); err != nil {
		t.Fatal(err)
	}
	isNaN := func(h uint16) bool { return h&expMask16 == expMask16 && h&fracMask16 != 0 }
	for i := range dst {
		if isNaN(a[i]) && isNaN(b[i]) {
			// Which payload a NaN+NaN keeps is the adder's operand order,
			// which the compiler picks; either operand, quieted, is right.
			if dst[i] != a[i]|0x200 && dst[i] != b[i]|0x200 {
				t.Fatalf("AddInto(%#04x, %#04x) = %#04x, want either NaN quieted", a[i], b[i], dst[i])
			}
			continue
		}
		want := oracleFromFloat32(oracleToFloat32(a[i]) + oracleToFloat32(b[i]))
		if dst[i] != want {
			t.Fatalf("AddInto(%#04x, %#04x) = %#04x, oracle %#04x", a[i], b[i], dst[i], want)
		}
	}
	if err := AddInto(dst[:3], b[:2]); err == nil {
		t.Error("AddInto accepted mismatched lengths")
	}
}

// gradientLike fills n values the way a late-training gradient buffer
// looks: magnitudes log-uniform over 1e-9…10, both signs, 5 % exact
// zeros — so sign and exponent class change from element to element.
func gradientLike(n int) []float32 {
	r := rand.New(rand.NewSource(16))
	s := make([]float32, n)
	for i := range s {
		if r.Float64() < 0.05 {
			continue
		}
		m := math.Exp(math.Log(1e-9) + r.Float64()*math.Log(1e10))
		if r.Intn(2) == 0 {
			m = -m
		}
		s[i] = float32(m)
	}
	return s
}

const benchElems = 1 << 20

// benchPair times the kernel and the oracle loop on the same buffers
// and reports ns/elem; reset (untimed) runs before every iteration.
func benchPair(b *testing.B, reset, kernel, oracle func()) {
	for _, c := range []struct {
		name string
		fn   func()
	}{{"kernel", kernel}, {"oracle", oracle}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if reset != nil {
					b.StopTimer()
					reset()
					b.StartTimer()
				}
				c.fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchElems, "ns/elem")
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	src := gradientLike(benchElems)
	dst := make([]uint16, benchElems)
	benchPair(b, nil,
		func() { _ = Encode(src, dst) },
		func() {
			for i, v := range src {
				dst[i] = oracleFromFloat32(v)
			}
		})
}

// scaledHalves is a gradient-like buffer as it sits on the wire: loss-
// scaled by 2¹⁰ and encoded, so subnormals and zeros are in the mix.
func scaledHalves(tb testing.TB) []uint16 {
	h := make([]uint16, benchElems)
	if err := EncodeScaled(gradientLike(benchElems), h, 1024); err != nil {
		tb.Fatal(err)
	}
	return h
}

func BenchmarkDecode(b *testing.B) {
	src := scaledHalves(b)
	dst := make([]float32, benchElems)
	benchPair(b, nil,
		func() { _ = Decode(src, dst) },
		func() {
			for i, h := range src {
				dst[i] = oracleToFloat32(h)
			}
		})
}

func BenchmarkAddInto(b *testing.B) {
	src := scaledHalves(b)
	dst := make([]uint16, benchElems)
	// Each iteration adds src into a fresh copy of its reversal, so the
	// operands pair unrelated magnitudes and the sums never drift to
	// Inf over b.N iterations.
	reset := func() {
		for j := range dst {
			dst[j] = src[len(src)-1-j]
		}
	}
	benchPair(b, reset,
		func() { _ = AddInto(dst, src) },
		func() {
			for i, h := range src {
				dst[i] = oracleFromFloat32(oracleToFloat32(dst[i]) + oracleToFloat32(h))
			}
		})
}
