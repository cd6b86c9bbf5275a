package asciichart

import (
	"strings"
	"testing"
)

func TestHBarProportions(t *testing.T) {
	out := HBar([]Bar{{"a", 10}, {"b", 5}, {"c", 0}}, 20, "%.0f")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	count := func(s string) int { return strings.Count(s, "█") }
	if count(lines[0]) != 20 {
		t.Errorf("max bar has %d cells, want 20", count(lines[0]))
	}
	if count(lines[1]) != 10 {
		t.Errorf("half bar has %d cells, want 10", count(lines[1]))
	}
	if count(lines[2]) != 0 {
		t.Errorf("zero bar has %d cells", count(lines[2]))
	}
	if !strings.Contains(lines[0], "10") || !strings.Contains(lines[1], "5") {
		t.Error("values not annotated")
	}
}

func TestHBarTinyValueGetsOneCell(t *testing.T) {
	out := HBar([]Bar{{"big", 1000}, {"tiny", 1}}, 20, "%.0f")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[1], "█") != 1 {
		t.Error("tiny non-zero bar should still be visible")
	}
}

func TestHBarEmptyAndWidthClamp(t *testing.T) {
	if HBar(nil, 20, "%f") != "" {
		t.Error("empty input should render nothing")
	}
	out := HBar([]Bar{{"x", 1}}, 1, "%.0f") // clamped to ≥8
	if strings.Count(out, "█") != 8 {
		t.Errorf("width clamp failed: %q", out)
	}
}

func TestLabelsAligned(t *testing.T) {
	out := HBar([]Bar{{"a", 1}, {"longlabel", 2}}, 10, "%.0f")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Index(lines[0], "|") != strings.Index(lines[1], "|") {
		t.Error("bars not aligned")
	}
}
