// Package segdata generates the synthetic stand-in for PASCAL VOC
// 2012: deterministic 21-class scenes of textured geometric objects
// over a noisy background, with VOC's class list, void label (255) on
// object boundaries, Horovod-style shard-by-rank splitting, and the
// augmentations DeepLab trains with (random flip and crop).
//
// The substitution (documented in DESIGN.md) keeps the accuracy
// experiment end-to-end real: the model must genuinely learn a
// pixel-labelling function; only the imagery is synthetic.
package segdata

import (
	"fmt"
	"math/rand"
	"sync"

	"segscale/internal/tensor"
)

// NumClasses matches PASCAL VOC: background + 20 object classes.
const NumClasses = 21

// IgnoreLabel is VOC's void label for unlabelled pixels (object
// contours).
const IgnoreLabel int32 = 255

// ClassNames lists the VOC 2012 classes in canonical order.
var ClassNames = [NumClasses]string{
	"background", "aeroplane", "bicycle", "bird", "boat", "bottle",
	"bus", "car", "cat", "chair", "cow", "diningtable", "dog", "horse",
	"motorbike", "person", "pottedplant", "sheep", "sofa", "train",
	"tvmonitor",
}

// palette assigns each class a distinctive (learnable) RGB signature
// in [-1, 1] — the synthetic analogue of class appearance. Classes
// take well-separated points of a 3-level RGB grid (27 ≥ 21 combos),
// skipping the grey diagonal the background occupies.
var palette [NumClasses][3]float32

func init() {
	levels := [3]float32{-0.8, 0, 0.8}
	c := 1
	for i := 0; i < 27 && c < NumClasses; i++ {
		r, g, b := i/9, (i/3)%3, i%3
		if r == g && g == b {
			continue // grey diagonal: too close to the background
		}
		palette[c] = [3]float32{levels[r], levels[g], levels[b]}
		c++
	}
}

// Palette returns class c's RGB signature.
func Palette(c int) [3]float32 { return palette[c] }

// Style selects the scene generator.
type Style int

const (
	// StyleVOC scatters geometric objects on a textured background
	// (the default, PASCAL-VOC-like).
	StyleVOC Style = iota
	// StyleUrban builds driving-scene-like layouts: horizontal sky /
	// building / road bands with vehicles and pedestrians on the road
	// — a Cityscapes-flavoured variant for generality experiments.
	StyleUrban
)

// Urban-scene band classes reuse VOC labels with road-scene roles.
const (
	urbanSky      = 1  // "aeroplane" colour plays the sky
	urbanBuilding = 19 // "train" colour plays the building band
	urbanRoad     = 0  // background plays the road
	urbanCar      = 7  // car
	urbanPerson   = 15 // person
)

// Dataset is a deterministic synthetic segmentation dataset: sample i
// is always the same scene for a given (seed, geometry).
type Dataset struct {
	N          int
	H, W       int
	Seed       int64
	MaxObjects int
	NoiseStd   float64
	Style      Style
	// VoidBoundary draws a 1-pixel ignore ring around objects, like
	// VOC's contour annotations.
	VoidBoundary bool
}

// New creates a dataset of n H×W scenes.
func New(n, h, w int, seed int64) *Dataset {
	if n <= 0 || h < 8 || w < 8 {
		panic(fmt.Sprintf("segdata: bad geometry n=%d %dx%d", n, h, w))
	}
	return &Dataset{N: n, H: h, W: w, Seed: seed, MaxObjects: 3, NoiseStd: 0.12, VoidBoundary: true}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.N }

// Sample renders scene i: a [3,H,W] image and its H·W label map.
func (d *Dataset) Sample(i int) (*tensor.Tensor, []int32) {
	img := tensor.New(3, d.H, d.W)
	label := make([]int32, d.H*d.W)
	d.SampleInto(i, img, label)
	return img, label
}

// sceneRNGs recycles the scene generators SampleInto draws from: a
// fresh rand.New(rand.NewSource(…)) per image is two allocations and
// about 4.9 KB of garbage. Reseeding a generator in place replays
// exactly the stream a fresh one would produce. A Dataset is shared by
// every rank's goroutine, so the generators live in a pool rather than
// on the Dataset.
var sceneRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// SampleInto renders scene i into caller-owned buffers: img must be a
// [3,H,W] tensor (its contents are fully overwritten) and label must
// hold H·W entries. The pooled evaluation path reuses one set of
// buffers across every batch; rendering is a pure function of
// (seed, i), so reuse cannot change the pixels produced.
func (d *Dataset) SampleInto(i int, img *tensor.Tensor, label []int32) {
	if i < 0 || i >= d.N {
		panic(fmt.Sprintf("segdata: sample %d of %d", i, d.N))
	}
	if len(img.Data) != 3*d.H*d.W || len(label) != d.H*d.W {
		panic(fmt.Sprintf("segdata: sample buffers %d/%d for %dx%d", len(img.Data), len(label), d.H, d.W))
	}
	rng := sceneRNGs.Get().(*rand.Rand)
	defer sceneRNGs.Put(rng)
	rng.Seed(d.Seed*1_000_003 + int64(i))
	// The background pass overwrites every image value; labels start
	// from "all background" by contract, so clear any reused buffer.
	for p := range label {
		label[p] = 0
	}

	if d.Style == StyleUrban {
		d.renderUrban(rng, img, label)
		return
	}

	// Textured background (class 0): low-amplitude grey noise.
	for ch := 0; ch < 3; ch++ {
		base := float32(rng.Float64()*0.3 - 0.15)
		for p := 0; p < d.H*d.W; p++ {
			img.Data[ch*d.H*d.W+p] = base + float32(rng.NormFloat64()*d.NoiseStd)
		}
	}

	nObj := 1 + rng.Intn(d.MaxObjects)
	for o := 0; o < nObj; o++ {
		class := 1 + rng.Intn(NumClasses-1)
		d.drawObject(rng, img, label, class)
	}
}

// renderUrban paints the driving-scene layout: a sky band, a building
// band, a road band, and cars/persons on the road.
func (d *Dataset) renderUrban(rng *rand.Rand, img *tensor.Tensor, label []int32) {
	h, w := d.H, d.W
	horizon := h/4 + rng.Intn(h/4)           // sky ends here
	roadTop := horizon + h/6 + rng.Intn(h/6) // buildings end here
	d.fillBand(rng, img, label, 0, horizon, urbanSky)
	d.fillBand(rng, img, label, horizon, roadTop, urbanBuilding)
	d.fillBand(rng, img, label, roadTop, h, urbanRoad) // road = background class (dark)

	// Vehicles and pedestrians sit on the road band.
	nObj := 1 + rng.Intn(d.MaxObjects)
	for o := 0; o < nObj; o++ {
		class := urbanCar
		if rng.Intn(2) == 1 {
			class = urbanPerson
		}
		cy := roadTop + rng.Intn(max(1, h-roadTop))
		cx := rng.Intn(w)
		r := 2 + rng.Intn(max(2, (h-roadTop)/3))
		col := Palette(class)
		for y := cy - r; y <= cy+r; y++ {
			if y < roadTop || y >= h {
				continue
			}
			halfW := r
			if class == urbanPerson {
				halfW = max(1, r/3) // persons are tall and narrow
			}
			for x := cx - halfW; x <= cx+halfW; x++ {
				if x < 0 || x >= w {
					continue
				}
				p := y*w + x
				label[p] = int32(class)
				for ch := 0; ch < 3; ch++ {
					img.Data[ch*h*w+p] = col[ch] + float32(rng.NormFloat64()*d.NoiseStd)
				}
			}
		}
	}
}

// fillBand paints rows [y0,y1) with the class's palette colour plus
// grey noise. A method rather than a closure in renderUrban so the
// urban render path stays free of per-scene closure allocations.
func (d *Dataset) fillBand(rng *rand.Rand, img *tensor.Tensor, label []int32, y0, y1, class int) {
	h, w := d.H, d.W
	col := Palette(class)
	for y := y0; y < y1; y++ {
		for x := 0; x < w; x++ {
			p := y*w + x
			label[p] = int32(class)
			for ch := 0; ch < 3; ch++ {
				img.Data[ch*h*w+p] = col[ch] + float32(rng.NormFloat64()*d.NoiseStd)
			}
		}
	}
}

// objInside reports whether pixel (y,x) falls inside an object of the
// given shape centred at (cy,cx) with radius r. A plain function
// rather than drawObject's former closure: the rasteriser calls it per
// pixel, and a capturing closure would cost one heap allocation per
// object drawn.
func objInside(shape, cy, cx, r, y, x int) bool {
	dy, dx := y-cy, x-cx
	switch shape {
	case 0: // circle
		return dy*dy+dx*dx <= r*r
	case 1: // rectangle
		return abs(dy) <= r && abs(dx) <= r*3/2
	default: // triangle (downward)
		return dy >= -r && dy <= r && abs(dx) <= (r-dy+1)/2+1
	}
}

// drawObject rasterises one object of the class's characteristic
// shape (classes cycle circle/rectangle/triangle) and colour.
func (d *Dataset) drawObject(rng *rand.Rand, img *tensor.Tensor, label []int32, class int) {
	h, w := d.H, d.W
	cy := rng.Intn(h)
	cx := rng.Intn(w)
	r := 2 + rng.Intn(max(2, min(h, w)/4))
	col := palette[class]
	shape := class % 3

	lo, hi := -r*2, r*2
	for y := cy + lo; y <= cy+hi; y++ {
		if y < 0 || y >= h {
			continue
		}
		for x := cx + lo; x <= cx+hi; x++ {
			if x < 0 || x >= w || !objInside(shape, cy, cx, r, y, x) {
				continue
			}
			p := y*w + x
			label[p] = int32(class)
			for ch := 0; ch < 3; ch++ {
				img.Data[ch*h*w+p] = col[ch] + float32(rng.NormFloat64()*d.NoiseStd)
			}
		}
	}

	if !d.VoidBoundary {
		return
	}
	// Ignore ring: pixels just outside the object that touch it.
	for y := cy + lo - 1; y <= cy+hi+1; y++ {
		if y < 0 || y >= h {
			continue
		}
		for x := cx + lo - 1; x <= cx+hi+1; x++ {
			if x < 0 || x >= w || objInside(shape, cy, cx, r, y, x) {
				continue
			}
			touches := false
			for _, dd := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				ny, nx := y+dd[0], x+dd[1]
				if ny >= 0 && ny < h && nx >= 0 && nx < w && objInside(shape, cy, cx, r, ny, nx) {
					touches = true
					break
				}
			}
			if touches && label[y*w+x] != int32(class) {
				label[y*w+x] = IgnoreLabel
			}
		}
	}
}

// Batch assembles samples ids into an [N,3,H,W] tensor and a
// concatenated label vector.
func (d *Dataset) Batch(ids []int) (*tensor.Tensor, []int32) {
	n := len(ids)
	x := tensor.New(n, 3, d.H, d.W)
	labels := make([]int32, n*d.H*d.W)
	d.BatchInto(ids, x, labels)
	return x, labels
}

// BatchInto renders samples ids into caller-owned buffers: x must be
// an [N,3,H,W] tensor (typically drawn raw from a workspace — every
// element is overwritten) and labels must hold N·H·W entries. Each
// sample is rendered in place through a view over x's data, so the
// only per-call allocations are the views' small headers.
func (d *Dataset) BatchInto(ids []int, x *tensor.Tensor, labels []int32) {
	n := len(ids)
	per := 3 * d.H * d.W
	if len(x.Data) != n*per || len(labels) != n*d.H*d.W {
		panic(fmt.Sprintf("segdata: batch buffers %d/%d for %d samples of %dx%d",
			len(x.Data), len(labels), n, d.H, d.W))
	}
	for k, id := range ids {
		img := tensor.FromSlice(x.Data[k*per:(k+1)*per], 3, d.H, d.W)
		d.SampleInto(id, img, labels[k*d.H*d.W:(k+1)*d.H*d.W])
	}
}

// ShardIDs returns the sample indices owned by `rank` of `world`
// ranks — the i ≡ rank (mod world) split Horovod's data sharding
// uses, guaranteeing disjoint coverage.
func ShardIDs(n, world, rank int) []int {
	if world <= 0 || rank < 0 || rank >= world {
		panic(fmt.Sprintf("segdata: shard rank %d of %d", rank, world))
	}
	var out []int
	for i := rank; i < n; i += world {
		out = append(out, i)
	}
	return out
}

// FlipHoriz mirrors an image batch and its labels in place along the
// x-axis — the cheapest of DeepLab's augmentations.
func FlipHoriz(x *tensor.Tensor, labels []int32) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	for i := 0; i < n*c; i++ {
		for y := 0; y < h; y++ {
			row := x.Data[(i*h+y)*w : (i*h+y+1)*w]
			for a, b := 0, w-1; a < b; a, b = a+1, b-1 {
				row[a], row[b] = row[b], row[a]
			}
		}
	}
	for i := 0; i < n; i++ {
		for y := 0; y < h; y++ {
			row := labels[(i*h+y)*w : (i*h+y+1)*w]
			for a, b := 0, w-1; a < b; a, b = a+1, b-1 {
				row[a], row[b] = row[b], row[a]
			}
		}
	}
}

// RandomScaleCrop applies DeepLab's scale-jitter augmentation to a
// batch in place: each sample is bilinearly scaled by a factor drawn
// from [minScale, maxScale] and a same-size window is cropped back
// out (zoom-in crops a random region; zoom-out pads by sampling the
// scaled image's edge via clamping, matching resize semantics).
// Labels use nearest-neighbour resampling to stay categorical.
func RandomScaleCrop(rng *rand.Rand, x *tensor.Tensor, labels []int32, minScale, maxScale float64) {
	RandomScaleCropWS(rng, x, labels, minScale, maxScale, nil)
}

// RandomScaleCropWS is RandomScaleCrop with each sample's scaled copy
// drawn from ws, and the resize fanned out over ws's worker budget.
func RandomScaleCropWS(rng *rand.Rand, x *tensor.Tensor, labels []int32, minScale, maxScale float64, ws *tensor.Workspace) {
	if minScale <= 0 || maxScale < minScale {
		panic(fmt.Sprintf("segdata: scale range [%g, %g]", minScale, maxScale))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	// Label scratch shared by every sample in the batch (hoisted out of
	// the per-image loop; the size is the same for all of them).
	src := make([]int32, h*w)
	for i := 0; i < n; i++ {
		scale := minScale + rng.Float64()*(maxScale-minScale)
		sh := max(8, int(float64(h)*scale))
		sw := max(8, int(float64(w)*scale))

		// Scale the image sample bilinearly.
		one := tensor.FromSlice(x.Data[i*c*h*w:(i+1)*c*h*w], 1, c, h, w)
		scaled := tensor.BilinearResizeWS(one, sh, sw, ws)

		// Crop (or clamp-pad) back to h×w from a random offset.
		offY, offX := 0, 0
		if sh > h {
			offY = rng.Intn(sh - h + 1)
		}
		if sw > w {
			offX = rng.Intn(sw - w + 1)
		}
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				sy := min(sh-1, y+offY)
				srow := scaled.Data[(ch*sh+sy)*sw : (ch*sh+sy+1)*sw]
				drow := x.Data[((i*c+ch)*h+y)*w : ((i*c+ch)*h+y+1)*w]
				for xx := range drow {
					drow[xx] = srow[min(sw-1, xx+offX)]
				}
			}
		}
		ws.Put(scaled)

		// Nearest-neighbour for the labels, from the same geometry.
		copy(src, labels[i*h*w:(i+1)*h*w])
		for y := 0; y < h; y++ {
			sy := min(sh-1, y+offY)
			// Invert the bilinear mapping (align_corners): scaled
			// row sy came from source row sy·(h−1)/(sh−1).
			oy := 0
			if sh > 1 {
				oy = int(float64(sy)*float64(h-1)/float64(sh-1) + 0.5)
			}
			for xx := 0; xx < w; xx++ {
				sx := min(sw-1, xx+offX)
				ox := 0
				if sw > 1 {
					ox = int(float64(sx)*float64(w-1)/float64(sw-1) + 0.5)
				}
				labels[i*h*w+y*w+xx] = src[oy*w+ox]
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
