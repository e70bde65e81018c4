package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pxmltest"
	"repro/internal/store"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestReadManifestOnly proves the quick stat path never opens payload
// files: it works even when the document file is corrupt.
func TestReadManifestOnly(t *testing.T) {
	dir := t.TempDir()
	tree := pxmltest.Fig2Tree()
	saved, err := store.SaveWith(dir, tree, nil, store.SaveOptions{Comment: "quick", LogSeq: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload: a full Load must now fail…
	docPath := filepath.Join(dir, saved.DocumentFile)
	if err := writeFile(docPath, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(dir); err == nil {
		t.Fatal("Load succeeded over corrupt document")
	}
	// …while ReadManifest still answers from the manifest alone.
	m, err := store.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != store.FormatVersion || m.LogSeq != 42 || m.Comment != "quick" {
		t.Fatalf("manifest = %+v", m)
	}
	if m.LogicalNodes != tree.NodeCount() || m.Worlds != tree.WorldCount().String() {
		t.Fatalf("manifest sizes = %d nodes %s worlds", m.LogicalNodes, m.Worlds)
	}
}
