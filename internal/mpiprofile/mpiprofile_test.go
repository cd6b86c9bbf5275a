package mpiprofile

import "testing"

func TestBuiltinsValidate(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile name %q != lookup name %q", p.Name, name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("openmpi"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

// The modelled relationships the reproduction depends on: MVAPICH2-GDR
// must beat Spectrum on GPU-path latency and bandwidth everywhere.
func TestMV2GDRBeatsSpectrum(t *testing.T) {
	s, m := Spectrum(), MV2GDR()
	if !m.GPUDirect || s.GPUDirect {
		t.Fatal("GPUDirect flags wrong way round")
	}
	if m.LatInterGPU >= s.LatInterGPU {
		t.Errorf("MV2-GDR inter-node latency %.2g not below Spectrum %.2g", m.LatInterGPU, s.LatInterGPU)
	}
	if m.BWInter <= s.BWInter {
		t.Errorf("MV2-GDR inter-node bandwidth %.3g not above Spectrum %.3g", m.BWInter, s.BWInter)
	}
	if m.LatIntraNVLink >= s.LatIntraNVLink {
		t.Errorf("MV2-GDR NVLink latency not below Spectrum")
	}
}

func TestBandwidthsPhysical(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		if p.BWInter > 25e9 {
			t.Errorf("%s: inter-node bandwidth %.3g exceeds dual-rail EDR line rate", name, p.BWInter)
		}
		if p.BWNVLink > 50e9 {
			t.Errorf("%s: NVLink bandwidth %.3g exceeds NVLink2 pair rate", name, p.BWNVLink)
		}
		if p.BWStaged >= p.BWNVLink {
			t.Errorf("%s: staged path should be slower than NVLink", name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := MV2GDR()
	q := p.Clone()
	q.CUDABlockSize = 1
	q.Name = "other"
	if p.CUDABlockSize == 1 || p.Name == "other" {
		t.Fatal("Clone shares state with original")
	}
}

func TestValidateCatchesBadValues(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.BWInter = 0 },
		func(p *Profile) { p.LatInterGPU = -1 },
		func(p *Profile) { p.CUDABlockSize = 0 },
		func(p *Profile) { p.RndvOverhead = -1e-6 },
		func(p *Profile) { p.EagerLimit = -1 },
		func(p *Profile) { p.ReduceFlops = 0 },
	}
	for i, mutate := range cases {
		p := MV2GDR()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad profile passed validation", i)
		}
	}
}
