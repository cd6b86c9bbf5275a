package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
)

// Manifest is the run record written under results/runs/ whenever the
// observability plane is armed: enough to answer "what ran, from
// which revision, with what faults, and — when the run has a baseline —
// how well did it scale" from the artifact alone.
type Manifest struct {
	// Tool is the producing binary ("dlv3-train", "summit-sim").
	Tool string `json:"tool"`
	// GitRev is the VCS revision baked into the binary ("unknown" for
	// uncommitted `go run` builds).
	GitRev string `json:"git_rev"`
	Seed   int64  `json:"seed"`
	// Config summarises the run configuration (tool-specific keys).
	Config map[string]any `json:"config"`
	// ChaosSpec is the armed fault plan's compact spec ("" when none).
	ChaosSpec string `json:"chaos_spec,omitempty"`
	// AnchorImgPerSec and FinalEfficiency are set only by a run with a
	// baseline (summit-sim): the baseline's single-rank img/s, and the
	// last printed scale's metrics.ScalingEfficiency against it. A run
	// without a baseline (real training) omits both.
	AnchorImgPerSec float64 `json:"anchor_img_per_sec,omitempty"`
	FinalEfficiency float64 `json:"final_efficiency,omitempty"`
	// Restarts counts checkpoint-restart recoveries (real training).
	Restarts int `json:"restarts"`
	// Alerts is the run's full structured alert log.
	Alerts []Alert `json:"alerts"`
}

// GitRev returns the module's VCS revision from the build info, or
// "unknown" — the observability plane must not shell out to git.
func GitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// WriteManifest writes m atomically as <dir>/<tool>-seed<seed>.json
// (creating dir as needed) and returns the path. Deterministic naming
// makes regeneration idempotent: re-running the same configuration
// replaces its manifest instead of littering.
func WriteManifest(dir string, m Manifest) (string, error) {
	if m.Tool == "" {
		return "", fmt.Errorf("obs: manifest needs a tool name")
	}
	if m.Alerts == nil {
		m.Alerts = []Alert{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", m.Tool, m.Seed))
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	err = writeFileAtomic(path, func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	})
	return path, err
}
