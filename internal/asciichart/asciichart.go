// Package asciichart renders small horizontal bar charts and scaling
// curves as plain text — enough for the CLIs to show the paper's
// figures in a terminal without any plotting dependency.
package asciichart

import (
	"fmt"
	"strings"
)

// Bar is one labelled value.
type Bar struct {
	Label string
	Value float64
}

// HBar renders a horizontal bar chart scaled to width characters,
// annotating each bar with its value via format (e.g. "%.1f").
func HBar(bars []Bar, width int, format string) string {
	if len(bars) == 0 {
		return ""
	}
	if width < 8 {
		width = 8
	}
	maxVal := 0.0
	maxLabel := 0
	for _, b := range bars {
		if b.Value > maxVal {
			maxVal = b.Value
		}
		if len(b.Label) > maxLabel {
			maxLabel = len(b.Label)
		}
	}
	var sb strings.Builder
	for _, b := range bars {
		n := 0
		if maxVal > 0 && b.Value > 0 {
			n = int(b.Value / maxVal * float64(width))
			if n == 0 {
				n = 1
			}
		}
		fmt.Fprintf(&sb, "%-*s |%s%s %s\n",
			maxLabel, b.Label,
			strings.Repeat("█", n), strings.Repeat(" ", width-n),
			fmt.Sprintf(format, b.Value))
	}
	return sb.String()
}
