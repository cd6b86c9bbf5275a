// Package fp16 implements IEEE 754 binary16 conversion — the numeric
// substrate of Horovod's fp16 gradient compression
// (hvd.Compression.fp16), which halves allreduce volume at the cost
// of precision. Conversion uses round-to-nearest-even and handles
// subnormals, infinities and NaN.
package fp16

import (
	"fmt"
	"math"
	"sync"
)

const (
	expMask16  = 0x7C00
	fracMask16 = 0x03FF
	signMask16 = 0x8000
)

// Bit-pattern landmarks of the float32 → binary16 conversion, on the
// float32 magnitude (sign bit cleared).
const (
	minNormal32 = 0x38800000 // 2⁻¹⁴, the smallest normal half
	overflow32  = 0x47800000 // 2¹⁶: every finite magnitude from here up rounds to Inf
	inf32       = 0x7F800000
	rebias32    = 0x38000000 // (127−15)<<23, the exponent-bias difference
	half32      = 0x3F000000 // bits of float32(0.5)
)

// finiteHalf converts the float32 with bit pattern b, |f| < 2¹⁶, to
// binary16. It does not branch on the value's sign, exponent class or
// mantissa — on real gradients those flip from element to element and
// a branchy converter spends most of its time mispredicting. Both
// candidate results are computed and one is selected by mask:
//
//   - normal halves round in the integer domain: rebias the exponent,
//     add 0xFFF plus the kept LSB (round-to-nearest-even on the 13
//     dropped bits), shift. A mantissa carry walks into the exponent,
//     which is correct rounding, including up to Inf at 65520;
//   - subnormal halves (and underflow to zero) round in the FPU:
//     |f| + 0.5 lands in [0.5, 1), whose float32 ULP is 2⁻²⁴ — the
//     subnormal half's ULP — so the adder's own round-to-nearest-even
//     does the work and the low mantissa bits are the result.
//
// Small enough to inline into the slice kernels' loops; the callers
// route |f| ≥ 2¹⁶, Inf and NaN to specialHalf, a branch a finite
// gradient stream never takes and so always predicts.
func finiteHalf(b uint32) uint16 {
	abs := b &^ (1 << 31)
	norm := (abs - rebias32 + 0xFFF + ((abs >> 13) & 1)) >> 13
	sub := math.Float32bits(math.Float32frombits(abs)+0.5) - half32
	// All ones when abs < minNormal32: both are below 2³¹, so the
	// difference is negative exactly then.
	isSub := uint32(int32(abs-minNormal32) >> 31)
	return uint16(b>>16)&signMask16 | uint16(norm^((norm^sub)&isSub))
}

// hasNoFiniteHalf reports whether the float32 with bit pattern b is
// outside finiteHalf's domain.
func hasNoFiniteHalf(b uint32) bool { return b&^(1<<31) >= overflow32 }

// specialHalf converts the magnitudes with no finite half: overflow
// and Inf become Inf; a NaN keeps the top 10 payload bits that survive
// the truncation, with the quiet bit forced only when truncation would
// leave an all-zero payload (which would otherwise read back as Inf).
//
//go:noinline
func specialHalf(b uint32) uint16 {
	sign := uint16(b>>16) & signMask16
	abs := b &^ (1 << 31)
	if abs <= inf32 {
		return sign | expMask16
	}
	payload := uint16(abs>>13) & fracMask16
	if payload == 0 {
		payload = 0x200
	}
	return sign | expMask16 | payload
}

// The decode table maps every half-word to its float32 value. It is
// built on first use, not at init: processes that never touch the
// binary16 wire (the fp32 trainer, the simulators) pay neither the
// 256 KiB nor the build time.
var (
	decodeOnce  sync.Once
	decodeTable [1 << 16]float32
)

func decodeTab() *[1 << 16]float32 {
	decodeOnce.Do(buildDecodeTable)
	return &decodeTable
}

// buildDecodeTable fills the table by the exact magic multiply: the
// half's exponent and mantissa, shifted into float32 position, read as
// the half's magnitude scaled by 2⁻¹¹² — a float32 normal, or a
// float32 subnormal for a subnormal half — and one multiply by 2¹¹²
// rebiases and normalises without rounding. Exponent 31 (Inf/NaN)
// takes float32's all-ones exponent and keeps its payload.
func buildDecodeTable() {
	for h := range decodeTable {
		mag := uint32(h&0x7FFF) << 13
		if mag >= expMask16<<13 {
			mag |= inf32
		} else {
			mag = math.Float32bits(math.Float32frombits(mag) * 0x1p112)
		}
		decodeTable[h] = math.Float32frombits(uint32(h&signMask16)<<16 | mag)
	}
}

// Encode packs a float32 slice into binary16 words — the cast that
// runs once per fused buffer on the compressed-allreduce pack path. A
// destination shorter than the source is a caller bug, reported as an
// error rather than a panic so a multi-rank world can unwind cleanly;
// the success path allocates nothing.
//
// Pinned at zero allocations by TestCastAllocBudget.
func Encode(src []float32, dst []uint16) error {
	if len(dst) < len(src) {
		return fmt.Errorf("fp16: encode %d values into %d-word destination", len(src), len(dst))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float32bits(v)
		h := finiteHalf(b)
		if hasNoFiniteHalf(b) {
			h = specialHalf(b)
		}
		dst[i] = h
	}
	return nil
}

// EncodeScaled is Encode of src[i]·scale, the product rounded to
// float32 before the cast — exactly what scaling the slice in place
// and then encoding it produces, in one pass and without touching src.
//
// Pinned at zero allocations by TestCastAllocBudget.
func EncodeScaled(src []float32, dst []uint16, scale float32) error {
	if len(dst) < len(src) {
		return fmt.Errorf("fp16: encode %d values into %d-word destination", len(src), len(dst))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float32bits(v * scale)
		h := finiteHalf(b)
		if hasNoFiniteHalf(b) {
			h = specialHalf(b)
		}
		dst[i] = h
	}
	return nil
}

// Decode unpacks binary16 words into float32 — Encode's inverse on
// the unpack path, with the same error contract.
//
// Pinned at zero allocations by TestCastAllocBudget.
func Decode(src []uint16, dst []float32) error {
	if len(dst) < len(src) {
		return fmt.Errorf("fp16: decode %d words into %d-value destination", len(src), len(dst))
	}
	tab := decodeTab()
	dst = dst[:len(src)]
	for i, h := range src {
		dst[i] = tab[h]
	}
	return nil
}

// DecodeScaled is Decode followed by two float32 multiplies, first by
// a then by b, each product rounded — the averaging 1/size and the
// loss-scale inverse riding the unpack pass. It also reports whether
// any source word was Inf or NaN (exponent field all ones): a
// non-finite half decodes to a non-finite float32 and stays one under
// any finite multiplier, so the verdict equals a scan of the decoded,
// averaged values.
//
// Pinned at zero allocations by TestCastAllocBudget.
func DecodeScaled(src []uint16, dst []float32, a, b float32) (nonFinite bool, err error) {
	if len(dst) < len(src) {
		return false, fmt.Errorf("fp16: decode %d words into %d-value destination", len(src), len(dst))
	}
	tab := decodeTab()
	dst = dst[:len(src)]
	var acc uint16
	for i, h := range src {
		// Adding one to an all-ones exponent field carries into bit 15.
		acc |= h&0x7FFF + 1<<10
		dst[i] = tab[h] * a * b
	}
	return acc&signMask16 != 0, nil
}

// AddInto reduces src into dst elementwise with float32 accumulation:
// decode both operands, add in float32, re-encode with
// round-to-nearest-even — one reduce hop of a binary16 allreduce. Only
// the stored value is 16-bit, never the arithmetic.
//
// Pinned at zero allocations by TestCastAllocBudget.
func AddInto(dst, src []uint16) error {
	if len(dst) != len(src) {
		return fmt.Errorf("fp16: reduce length mismatch %d vs %d", len(dst), len(src))
	}
	tab := decodeTab()
	for i, s := range src {
		b := math.Float32bits(tab[dst[i]] + tab[s])
		h := finiteHalf(b)
		if hasNoFiniteHalf(b) {
			h = specialHalf(b)
		}
		dst[i] = h
	}
	return nil
}
