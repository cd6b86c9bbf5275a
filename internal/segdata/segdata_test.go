package segdata

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	d := New(10, 32, 32, 7)
	img1, lbl1 := d.Sample(3)
	img2, lbl2 := d.Sample(3)
	for i := range img1.Data {
		if img1.Data[i] != img2.Data[i] {
			t.Fatal("image not deterministic")
		}
	}
	for i := range lbl1 {
		if lbl1[i] != lbl2[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

// TestConcurrentRenderingMatchesSerial renders every scene from four
// goroutines at once, as the ranks of a world share one Dataset, and
// requires each to match the serial render bit for bit: the pooled
// scene generators are never shared between two renders, and reseeding
// one replays its scene's stream whatever it rendered before.
func TestConcurrentRenderingMatchesSerial(t *testing.T) {
	for _, style := range []Style{StyleVOC, StyleUrban} {
		d := New(6, 16, 16, 11)
		d.Style = style
		want := make([][]float32, d.N)
		for i := range want {
			img, _ := d.Sample(i)
			want[i] = img.Data
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4*d.N)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < d.N; k++ {
					i := (k + g) % d.N
					img, _ := d.Sample(i)
					for p, v := range img.Data {
						if math.Float32bits(v) != math.Float32bits(want[i][p]) {
							errs <- fmt.Sprintf("style %v goroutine %d: scene %d pixel %d differs", style, g, i, p)
							break
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

func TestSamplesDiffer(t *testing.T) {
	d := New(10, 32, 32, 7)
	_, lbl0 := d.Sample(0)
	_, lbl1 := d.Sample(1)
	same := true
	for i := range lbl0 {
		if lbl0[i] != lbl1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different samples produced identical labels")
	}
}

func TestLabelsValid(t *testing.T) {
	d := New(20, 33, 33, 11)
	for i := 0; i < d.Len(); i++ {
		_, lbl := d.Sample(i)
		hasObject := false
		for _, l := range lbl {
			if l != IgnoreLabel && (l < 0 || l >= NumClasses) {
				t.Fatalf("sample %d: label %d out of range", i, l)
			}
			if l > 0 && l != IgnoreLabel {
				hasObject = true
			}
		}
		if !hasObject {
			t.Errorf("sample %d has no object pixels", i)
		}
	}
}

func TestImageValuesBounded(t *testing.T) {
	d := New(5, 32, 32, 3)
	for i := 0; i < d.Len(); i++ {
		img, _ := d.Sample(i)
		if img.MaxAbs() > 2.5 {
			t.Fatalf("sample %d has extreme pixel %g", i, img.MaxAbs())
		}
	}
}

func TestObjectPixelsCarryClassColour(t *testing.T) {
	// The task must be learnable: object pixels should be closer to
	// their class's palette colour than background pixels are.
	d := New(30, 32, 32, 5)
	matches, total := 0, 0
	for i := 0; i < d.Len(); i++ {
		img, lbl := d.Sample(i)
		for p, l := range lbl {
			if l <= 0 || l == IgnoreLabel {
				continue
			}
			col := Palette(int(l))
			var dist float64
			for ch := 0; ch < 3; ch++ {
				dv := float64(img.Data[ch*32*32+p] - col[ch])
				dist += dv * dv
			}
			total++
			if dist < 0.5 {
				matches++
			}
		}
	}
	if total == 0 {
		t.Fatal("no object pixels at all")
	}
	if frac := float64(matches) / float64(total); frac < 0.8 {
		t.Fatalf("only %.2f of object pixels near class colour", frac)
	}
}

func TestVoidBoundaryPresent(t *testing.T) {
	d := New(20, 32, 32, 9)
	found := false
	for i := 0; i < d.Len() && !found; i++ {
		_, lbl := d.Sample(i)
		for _, l := range lbl {
			if l == IgnoreLabel {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no void boundary pixels in any sample")
	}
	d.VoidBoundary = false
	for i := 0; i < d.Len(); i++ {
		_, lbl := d.Sample(i)
		for _, l := range lbl {
			if l == IgnoreLabel {
				t.Fatal("void pixels with VoidBoundary disabled")
			}
		}
	}
}

func TestBatchLayout(t *testing.T) {
	d := New(10, 16, 16, 1)
	x, labels := d.Batch([]int{2, 5})
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 16 || x.Dim(3) != 16 {
		t.Fatalf("batch shape %v", x.Shape)
	}
	if len(labels) != 2*16*16 {
		t.Fatalf("labels length %d", len(labels))
	}
	img, lbl := d.Sample(5)
	for i := range img.Data {
		if x.Data[3*16*16+i] != img.Data[i] {
			t.Fatal("second batch element mismatch")
		}
	}
	for i := range lbl {
		if labels[16*16+i] != lbl[i] {
			t.Fatal("second batch labels mismatch")
		}
	}
}

func TestShardIDsPartition(t *testing.T) {
	n, world := 103, 6
	seen := map[int]int{}
	for r := 0; r < world; r++ {
		for _, id := range ShardIDs(n, world, r) {
			seen[id]++
		}
	}
	if len(seen) != n {
		t.Fatalf("shards cover %d of %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d appears %d times", id, c)
		}
	}
}

func TestShardIDsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad shard accepted")
		}
	}()
	ShardIDs(10, 4, 4)
}

// Property: shard sizes differ by at most one.
func TestPropertyShardBalance(t *testing.T) {
	f := func(nn, ww uint8) bool {
		n := int(nn) + 1
		world := int(ww)%8 + 1
		minSz, maxSz := n+1, -1
		for r := 0; r < world; r++ {
			sz := len(ShardIDs(n, world, r))
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipHoriz(t *testing.T) {
	d := New(4, 16, 16, 2)
	x, labels := d.Batch([]int{0, 1})
	origX := append([]float32(nil), x.Data...)
	origL := append([]int32(nil), labels...)
	FlipHoriz(x, labels)
	// Double flip restores.
	FlipHoriz(x, labels)
	for i := range origX {
		if x.Data[i] != origX[i] {
			t.Fatal("double flip did not restore image")
		}
	}
	for i := range origL {
		if labels[i] != origL[i] {
			t.Fatal("double flip did not restore labels")
		}
	}
	// Single flip mirrors: position (y,x) ↔ (y,w−1−x).
	FlipHoriz(x, labels)
	w := 16
	for y := 0; y < 16; y++ {
		for xx := 0; xx < w; xx++ {
			if labels[y*w+xx] != origL[y*w+(w-1-xx)] {
				t.Fatal("flip mirrored labels incorrectly")
			}
		}
	}
}

func TestUrbanStyle(t *testing.T) {
	d := New(10, 32, 32, 4)
	d.Style = StyleUrban
	sawSky, sawBuilding, sawRoad, sawObject := false, false, false, false
	for i := 0; i < d.Len(); i++ {
		img, lbl := d.Sample(i)
		if img.MaxAbs() > 2.5 {
			t.Fatal("extreme pixels in urban scene")
		}
		for p, l := range lbl {
			switch l {
			case urbanSky:
				sawSky = true
				// Sky only in the upper half.
				if p/32 > 16 {
					t.Fatalf("sample %d: sky at row %d", i, p/32)
				}
			case urbanBuilding:
				sawBuilding = true
			case urbanRoad:
				sawRoad = true
			case urbanCar, urbanPerson:
				sawObject = true
			}
		}
	}
	if !sawSky || !sawBuilding || !sawRoad || !sawObject {
		t.Fatalf("urban scenes incomplete: sky=%v building=%v road=%v obj=%v",
			sawSky, sawBuilding, sawRoad, sawObject)
	}
	// Determinism holds for the style too.
	_, a := d.Sample(3)
	_, b := d.Sample(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("urban style not deterministic")
		}
	}
}

func TestUrbanTrainable(t *testing.T) {
	// The bands are large and colour-coded: labels must be dominated
	// by the three band classes (a sanity check that the task is
	// learnable structure, not noise).
	d := New(5, 32, 32, 8)
	d.Style = StyleUrban
	var band, total int
	for i := 0; i < d.Len(); i++ {
		_, lbl := d.Sample(i)
		for _, l := range lbl {
			total++
			if l == urbanSky || l == urbanBuilding || l == urbanRoad {
				band++
			}
		}
	}
	if float64(band)/float64(total) < 0.6 {
		t.Fatalf("band classes only %.2f of pixels", float64(band)/float64(total))
	}
}

func TestRandomScaleCrop(t *testing.T) {
	d := New(4, 24, 24, 6)
	rng := rand.New(rand.NewSource(1))
	x, labels := d.Batch([]int{0, 1})
	origShape := append([]int(nil), x.Shape...)
	RandomScaleCrop(rng, x, labels, 0.75, 1.5)
	for i, dim := range origShape {
		if x.Dim(i) != dim {
			t.Fatal("augmentation changed batch shape")
		}
	}
	// Labels stay categorical and in range.
	for _, l := range labels {
		if l != IgnoreLabel && (l < 0 || l >= NumClasses) {
			t.Fatalf("label %d out of range after augmentation", l)
		}
	}
	// Pixel values stay bounded (bilinear is a convex combination).
	if x.MaxAbs() > 2.5 {
		t.Fatalf("augmented pixels out of range: %g", x.MaxAbs())
	}
	// Identity scale range is a no-op geometrically (labels equal).
	x2, labels2 := d.Batch([]int{0})
	before := append([]int32(nil), labels2...)
	RandomScaleCrop(rng, x2, labels2, 1.0, 1.0)
	for i := range before {
		if labels2[i] != before[i] {
			t.Fatal("unit-scale augmentation moved labels")
		}
	}
}

func TestRandomScaleCropValidation(t *testing.T) {
	d := New(2, 16, 16, 1)
	x, labels := d.Batch([]int{0})
	defer func() {
		if recover() == nil {
			t.Error("bad scale range accepted")
		}
	}()
	RandomScaleCrop(rand.New(rand.NewSource(1)), x, labels, 2, 1)
}

func TestClassNamesComplete(t *testing.T) {
	if ClassNames[0] != "background" || ClassNames[15] != "person" {
		t.Fatal("VOC class order wrong")
	}
	for i, n := range ClassNames {
		if n == "" {
			t.Fatalf("class %d unnamed", i)
		}
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 32, 32, 1) },
		func() { New(5, 4, 32, 1) },
		func() { New(5, 32, 32, 1).Sample(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			f()
		}()
	}
}
