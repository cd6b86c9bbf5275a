package checkpoint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// dirEntries lists the names currently in dir.
// readMeta loads the full snapshot at path into a small model and
// returns its progress record, failing when there is none.
func readMeta(t *testing.T, path string) Meta {
	t.Helper()
	m := smallModel(0)
	st := State{Params: m.Params(), BNs: m.BatchNorms()}
	if err := LoadStateFile(path, &st); err != nil {
		t.Fatal(err)
	}
	if st.Meta == nil {
		t.Fatalf("%s has no meta record", path)
	}
	return *st.Meta
}

func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestSaveStateFileErrorLeavesNoTemp locks in the failed-save
// contract: when SaveState rejects the snapshot, the target directory
// is left exactly as it was found — no temp file, no target file.
func TestSaveStateFileErrorLeavesNoTemp(t *testing.T) {
	m := smallModel(11)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.segc")

	bad := State{Params: m.Params(), BNs: m.BatchNorms(), Meta: &Meta{Epoch: -1}}
	if err := SaveStateFile(path, bad); err == nil {
		t.Fatal("negative meta accepted")
	}
	if got := dirEntries(t, dir); len(got) != 0 {
		t.Fatalf("failed save left residue: %v", got)
	}

	// Same contract with a structurally bad snapshot.
	bad = State{Params: m.Params(), BNs: m.BatchNorms(),
		Velocity: make([][]float32, 1)}
	if err := SaveStateFile(path, bad); err == nil {
		t.Fatal("velocity count mismatch accepted")
	}
	if got := dirEntries(t, dir); len(got) != 0 {
		t.Fatalf("failed save left residue: %v", got)
	}
}

// TestSaveStateFileErrorPreservesExisting: a failed save must not
// disturb a previously committed checkpoint at the same path.
func TestSaveStateFileErrorPreservesExisting(t *testing.T) {
	src, _ := trainedState(t, 12)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.segc")
	if err := SaveStateFile(path, src); err != nil {
		t.Fatal(err)
	}

	m := smallModel(13)
	bad := State{Params: m.Params(), BNs: m.BatchNorms(), Meta: &Meta{Epoch: -1}}
	if err := SaveStateFile(path, bad); err == nil {
		t.Fatal("negative meta accepted")
	}
	if got := dirEntries(t, dir); len(got) != 1 || got[0] != "state.segc" {
		t.Fatalf("directory after failed overwrite: %v", got)
	}
	if meta := readMeta(t, path); meta != (Meta{Epoch: 3, Step: 17}) {
		t.Fatalf("existing checkpoint damaged by failed save: %+v", meta)
	}
}

// TestSaveStateFileConcurrentSaves hammers one path from many
// goroutines. With the old fixed "path.tmp" temp name, writers clobber
// each other's half-written temp and the final rename can commit a
// torn file; unique per-call temps make every rename atomic, so the
// survivor must always be one complete checkpoint.
func TestSaveStateFileConcurrentSaves(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.segc")

	const writers = 8
	states := make([]State, writers)
	for i := range states {
		st, _ := trainedState(t, int64(20+i))
		st.Meta = &Meta{Epoch: i, Step: 100 + i}
		states[i] = st
	}

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(st State) {
			defer wg.Done()
			if err := SaveStateFile(path, st); err != nil {
				t.Errorf("concurrent save: %v", err)
			}
		}(states[i])
	}
	wg.Wait()

	// Exactly the target file survives — every temp was renamed away.
	if got := dirEntries(t, dir); len(got) != 1 || got[0] != "state.segc" {
		t.Fatalf("directory after concurrent saves: %v", got)
	}

	// The survivor is one writer's complete snapshot, not an interleaving.
	meta := readMeta(t, path)
	winner := meta.Step - 100
	if winner < 0 || winner >= writers || meta.Epoch != winner {
		t.Fatalf("survivor meta %+v matches no writer", meta)
	}
	m := smallModel(99)
	dst := State{Params: m.Params(), BNs: m.BatchNorms()}
	if err := LoadStateFile(path, &dst); err != nil {
		t.Fatalf("survivor fails full load: %v", err)
	}
	want := states[winner]
	for i := range want.Params {
		for j, v := range want.Params[i].W.Data {
			if dst.Params[i].W.Data[j] != v {
				t.Fatalf("survivor param %s[%d] is not writer %d's value",
					want.Params[i].Name, j, winner)
			}
		}
	}
}

// TestSaveStateFileMissingDir: saving into a directory that does not
// exist fails cleanly instead of silently writing elsewhere.
func TestSaveStateFileMissingDir(t *testing.T) {
	src, _ := trainedState(t, 14)
	path := filepath.Join(t.TempDir(), "no-such-dir", "state.segc")
	if err := SaveStateFile(path, src); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
}
