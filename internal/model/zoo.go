package model

import "fmt"

// DLv3Plus returns the DeepLab-v3+ / Xception-65 profile at
// output-stride 16 on 513×513 crops — the paper's training
// configuration (batch 4 per GPU — the 16 GB V100 memory ceiling at 513² —
// and 6.7 img/s on one V100).
func DLv3Plus() *Profile {
	p := &Profile{
		Name:              "deeplab-v3plus-xception65",
		CropSize:          513,
		BatchPerGPU:       4,
		MeasuredImgPerSec: 6.7,
	}
	// Spatial sizes along the backbone: 513 → 257 (entry conv s2)
	// → 129 → 65 → 33; the middle and exit flows stay at 33 (atrous,
	// output-stride 16).
	const s2, s4, s8, s16 = 257, 129, 65, 33

	add := func(l Layer) { p.Layers = append(p.Layers, l) }

	// Entry flow.
	add(conv("entry.conv1", 3, 32, 3, s2, s2, false))
	add(bn("entry.bn1", 32, s2, s2))
	add(conv("entry.conv2", 32, 64, 3, s2, s2, false))
	add(bn("entry.bn2", 64, s2, s2))
	entryBlock := func(name string, cin, cout, size int) {
		add(sepconv(name+".sep1", cin, cout, size, size))
		add(sepconv(name+".sep2", cout, cout, size, size))
		add(sepconv(name+".sep3", cout, cout, size, size))
		add(conv(name+".proj", cin, cout, 1, size, size, false))
	}
	entryBlock("entry.block1", 64, 128, s4)
	entryBlock("entry.block2", 128, 256, s8)
	entryBlock("entry.block3", 256, 728, s16)

	// Middle flow: 16 residual blocks of three 728-channel sepconvs.
	for i := 0; i < 16; i++ {
		for j := 0; j < 3; j++ {
			add(sepconv(fmt.Sprintf("middle.block%d.sep%d", i+1, j+1), 728, 728, s16, s16))
		}
	}

	// Exit flow (atrous, stride 1 at OS16).
	add(sepconv("exit.block1.sep1", 728, 728, s16, s16))
	add(sepconv("exit.block1.sep2", 728, 1024, s16, s16))
	add(conv("exit.block1.proj", 728, 1024, 1, s16, s16, false))
	add(sepconv("exit.sep1", 1024, 1536, s16, s16))
	add(sepconv("exit.sep2", 1536, 1536, s16, s16))
	add(sepconv("exit.sep3", 1536, 2048, s16, s16))

	// ASPP at OS16: 1×1, three atrous 3×3 (rates 6/12/18), image
	// pooling, projection.
	add(conv("aspp.b0", 2048, 256, 1, s16, s16, false))
	add(bn("aspp.b0bn", 256, s16, s16))
	for i, r := range []int{6, 12, 18} {
		add(conv(fmt.Sprintf("aspp.b%d.rate%d", i+1, r), 2048, 256, 3, s16, s16, false))
		add(bn(fmt.Sprintf("aspp.b%dbn", i+1), 256, s16, s16))
	}
	add(conv("aspp.pool", 2048, 256, 1, 1, 1, true))
	add(conv("aspp.project", 1280, 256, 1, s16, s16, false))
	add(bn("aspp.projectbn", 256, s16, s16))

	// Decoder at OS4: low-level reduction, two fusion convs,
	// classifier.
	add(conv("decoder.low", 256, 48, 1, s4, s4, false))
	add(bn("decoder.lowbn", 48, s4, s4))
	add(conv("decoder.fuse1", 304, 256, 3, s4, s4, false))
	add(bn("decoder.fuse1bn", 256, s4, s4))
	add(conv("decoder.fuse2", 256, 256, 3, s4, s4, false))
	add(bn("decoder.fuse2bn", 256, s4, s4))
	add(conv("decoder.classifier", 256, 21, 1, s4, s4, true))
	return p
}

// resnetStage describes one residual stage.
type resnetStage struct {
	blocks, mid, out, size int
}

// resnet assembles a bottleneck ResNet profile.
func resnet(name string, stages []resnetStage, batch int, imgPerSec float64) *Profile {
	p := &Profile{
		Name:              name,
		CropSize:          224,
		BatchPerGPU:       batch,
		MeasuredImgPerSec: imgPerSec,
	}
	add := func(l Layer) { p.Layers = append(p.Layers, l) }

	add(conv("conv1", 3, 64, 7, 112, 112, false))
	add(bn("bn1", 64, 112, 112))

	cin := 64
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			bname := fmt.Sprintf("layer%d.block%d", si+1, b+1)
			add(conv(bname+".conv1", cin, st.mid, 1, st.size, st.size, false))
			add(bn(bname+".bn1", st.mid, st.size, st.size))
			add(conv(bname+".conv2", st.mid, st.mid, 3, st.size, st.size, false))
			add(bn(bname+".bn2", st.mid, st.size, st.size))
			add(conv(bname+".conv3", st.mid, st.out, 1, st.size, st.size, false))
			add(bn(bname+".bn3", st.out, st.size, st.size))
			if b == 0 {
				add(conv(bname+".downsample", cin, st.out, 1, st.size, st.size, false))
				add(bn(bname+".downsamplebn", st.out, st.size, st.size))
			}
			cin = st.out
		}
	}
	// Classifier head (fc 2048→1000).
	add(Layer{Name: "fc", Params: 2048*1000 + 1000, FwdFLOPs: 2 * 2048 * 1000, ActBytes: 4 * 1000})
	return p
}

// ResNet50 returns the ResNet-50 classification profile (224² inputs,
// batch 32, 300 img/s on one V100) — the paper's contrast model whose
// compute-to-communication ratio makes scaling easy.
func ResNet50() *Profile {
	return resnet("resnet-50", []resnetStage{
		{3, 64, 256, 56},
		{4, 128, 512, 28},
		{6, 256, 1024, 14},
		{3, 512, 2048, 7},
	}, 32, 300)
}

// ResNet101 returns ResNet-101 (the other common DeepLab backbone) —
// a deeper contrast point between ResNet-50 and Xception-65; V100
// throughput from contemporary MLPerf-era measurements.
func ResNet101() *Profile {
	return resnet("resnet-101", []resnetStage{
		{3, 64, 256, 56},
		{4, 128, 512, 28},
		{23, 256, 1024, 14},
		{3, 512, 2048, 7},
	}, 32, 165)
}

// DLv3PlusAMP is the mixed-precision what-if: the same network with
// tensor-core arithmetic (measurements from the era put AMP speedups
// for convolution-heavy models near 2.5×). Gradient volume is
// unchanged (master weights stay fp32), so the comm/compute ratio
// worsens by the same factor — the forward-looking experiment for
// what faster GPUs do to this tuning study.
func DLv3PlusAMP() *Profile {
	p := DLv3Plus()
	p.Name = "deeplab-v3plus-xception65-amp"
	p.MeasuredImgPerSec *= 2.5
	return p
}

// ByName looks up a built-in profile.
func ByName(name string) (*Profile, error) {
	switch name {
	case "dlv3plus", "deeplab", "deeplab-v3plus-xception65":
		return DLv3Plus(), nil
	case "resnet50", "resnet-50":
		return ResNet50(), nil
	case "resnet101", "resnet-101":
		return ResNet101(), nil
	case "dlv3plus-amp", "deeplab-v3plus-xception65-amp":
		return DLv3PlusAMP(), nil
	default:
		return nil, fmt.Errorf("model: unknown profile %q", name)
	}
}
