package collective

import (
	"reflect"
	"strings"
	"testing"
)

// TestWireTables walks both wire tables field by field. A tag base
// used twice, on either wire or by the naive oracle, lets one phase
// consume another's message; the binary16 span names and error
// prefixes are what traces, ledgers and tests match on, and must stay
// the float32 text plus a fixed suffix.
func TestWireTables(t *testing.T) {
	v32, v16 := reflect.ValueOf(wire32.wireText), reflect.ValueOf(wire16.wireText)
	tagOwner := map[int64]string{tagNaive: "tagNaive (oracle)", tagNaive16: "tagNaive16 (oracle)"}
	for i := 0; i < v32.NumField(); i++ {
		name := v32.Type().Field(i).Name
		f32, f16 := v32.Field(i), v16.Field(i)
		switch {
		case strings.HasPrefix(name, "tag"):
			for wire, f := range map[string]reflect.Value{"fp32": f32, "fp16": f16} {
				base := f.Int()
				if base <= 0 || base&0xFFFF != 0 {
					t.Errorf("%s %s = %#x: not a positive multiple of 1<<16", wire, name, base)
				}
				if owner, dup := tagOwner[base]; dup {
					t.Errorf("%s %s = %d<<16 collides with %s", wire, name, base>>16, owner)
				}
				tagOwner[base] = wire + " " + name
			}
		case strings.HasPrefix(name, "span"):
			if f32.String() == "" || f16.String() != f32.String()+"-fp16" {
				t.Errorf("%s: fp32 %q, fp16 %q; want a name and that name + \"-fp16\"", name, f32, f16)
			}
		case strings.HasPrefix(name, "err"):
			if f32.String() == "" || f16.String() != f32.String()+" fp16" {
				t.Errorf("%s: fp32 %q, fp16 %q; want a prefix and that prefix + \" fp16\"", name, f32, f16)
			}
		default:
			t.Errorf("wireText.%s is neither a tag base, a span name nor an error prefix: add its rule here", name)
		}
	}
}
