package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pxml"
	"repro/internal/store"
)

// TestCrashRecoveryEveryByteOffset is the crash-safety property test: a
// write killed at EVERY byte offset of the write-ahead segment must
// recover to either the pre-op or the post-op state — atomically, and
// never with an error, because the valid prefix is always intact and the
// torn suffix is truncated, not rejected.
//
// Construction: op 1 (integrate A) establishes the pre-state; op 2
// (integrate B) appends one more frame. For every cut point inside op 2's
// frame the on-disk state is cloned, the segment truncated to the cut,
// and the catalog reopened.
func TestCrashRecoveryEveryByteOffset(t *testing.T) {
	base := t.TempDir()
	data := filepath.Join(base, "data")
	cat, err := Open(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	cdb := db.Core()
	seg := filepath.Join(data, "x", walDirName, segName(1))

	if _, err := cdb.IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	preTree := cdb.Tree()
	preInfo, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	sizePre := preInfo.Size()

	if _, err := cdb.IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	postTree := cdb.Tree()
	postInfo, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	sizePost := postInfo.Size()
	if sizePost <= sizePre {
		t.Fatalf("op 2 wrote no bytes? %d -> %d", sizePre, sizePost)
	}
	// No clean shutdown: the live catalog is abandoned, only the fsynced
	// bytes exist. (Closing it here would compact and change the disk.)

	runEveryByteCut(t, data, sizePre, sizePost, preTree, postTree)
}

// runEveryByteCut clones data, truncates the segment to every offset in
// [sizePre, sizePost], and verifies recovery lands on exactly the pre-op
// or post-op tree and keeps accepting appends.
func runEveryByteCut(t *testing.T, data string, sizePre, sizePost int64, preTree, postTree *pxml.Tree) {
	t.Helper()
	runEveryByteCutSeg(t, data, filepath.Join("x", walDirName, segName(1)), sizePre, sizePost, preTree, postTree)
}

// runEveryByteCutSeg is runEveryByteCut over an arbitrary segment file
// (relative to the data dir) — the post-compaction harness cuts a later
// segment than the first.
func runEveryByteCutSeg(t *testing.T, data, segRel string, sizePre, sizePost int64, preTree, postTree *pxml.Tree) {
	t.Helper()
	for cut := sizePre; cut <= sizePost; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			killed := t.TempDir()
			copyDir(t, data, killed)
			if err := os.Truncate(filepath.Join(killed, segRel), cut); err != nil {
				t.Fatal(err)
			}
			cat2, err := Open(killed, testOptions())
			if err != nil {
				t.Fatalf("recovery failed at cut %d: %v", cut, err)
			}
			defer cat2.Close()
			db2, err := cat2.Get("x")
			if err != nil {
				t.Fatal(err)
			}
			got := db2.Core().Tree()
			want, label := preTree, "pre-op"
			if cut == sizePost {
				want, label = postTree, "post-op"
			}
			if !pxml.Equal(got.Root(), want.Root()) {
				t.Fatalf("cut %d: recovered tree is not the %s state", cut, label)
			}
			if got.WorldCount().Cmp(want.WorldCount()) != 0 {
				t.Fatalf("cut %d: world count %s != %s", cut, got.WorldCount(), want.WorldCount())
			}
			// A committed op must also be appendable-after: the log keeps
			// accepting writes from the recovered position.
			if _, err := db2.Core().IntegrateXMLString(abC); err != nil {
				t.Fatalf("cut %d: append after recovery: %v", cut, err)
			}
		})
	}
}

// TestCrashRecoveryMixedEncodingEveryByteOffset reruns the crash-safety
// property over a mixed-format log: op 1 journaled as JSON (the log an
// older build left behind), op 2 appended in binary by this build. Every
// cut inside the binary frame must recover to the JSON-committed pre
// state; the full frame to the post state.
func TestCrashRecoveryMixedEncodingEveryByteOffset(t *testing.T) {
	base := t.TempDir()
	data := filepath.Join(base, "data")
	opts := testOptions()
	opts.WALEncoding = EncodingJSON
	cat, err := Open(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	cdb := db.Core()
	seg := filepath.Join(data, "x", walDirName, segName(1))

	if _, err := cdb.IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	preTree := cdb.Tree()
	preInfo, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	// The binary-era build continues the same log: flip the append format
	// in place, exactly what reopening with the default encoding does.
	db.wal.jsonAppends = false
	if _, err := cdb.IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	postTree := cdb.Tree()
	postInfo, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	runEveryByteCut(t, data, preInfo.Size(), postInfo.Size(), preTree, postTree)
}

// TestCrashRecoveryCompactedV5EveryByteOffset reruns the crash-safety
// property over the current on-disk generation: op 1 is compacted into a
// v5 snapshot (strtab frame + shared-arena document, zero-copy decoded on
// reopen), and op 2 lands as a strtab-bearing v3 record in the surviving
// log. Every cut inside op 2's frame must recover the loaded snapshot
// state exactly; the full frame, the post-op state.
func TestCrashRecoveryCompactedV5EveryByteOffset(t *testing.T) {
	base := t.TempDir()
	data := filepath.Join(base, "data")
	cat, err := Open(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	cdb := db.Core()
	if _, err := cdb.IntegrateXMLString(abA); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	m, err := store.ReadManifest(filepath.Join(data, "x", stateDirName))
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != store.FormatVersion {
		t.Fatalf("compaction wrote format v%d, want v%d", m.FormatVersion, store.FormatVersion)
	}
	preTree := cdb.Tree()

	// The segment op 2 lands in may not exist yet (compaction dropped the
	// covered log): snapshot sizes before, integrate, diff after.
	walDir := filepath.Join(data, "x", walDirName)
	sizes := func() map[string]int64 {
		out := map[string]int64{}
		ents, err := os.ReadDir(walDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = info.Size()
		}
		return out
	}
	before := sizes()
	if _, err := cdb.IntegrateXMLString(abB); err != nil {
		t.Fatal(err)
	}
	postTree := cdb.Tree()
	var segRel string
	var sizePre, sizePost int64
	for name, sz := range sizes() {
		if before[name] != sz {
			if segRel != "" {
				t.Fatalf("op 2 grew two segments: %s and %s", segRel, name)
			}
			segRel = filepath.Join("x", walDirName, name)
			sizePre, sizePost = before[name], sz
		}
	}
	if segRel == "" || sizePost <= sizePre {
		t.Fatalf("op 2 wrote no bytes (before %v, after %v)", before, sizes())
	}
	runEveryByteCutSeg(t, data, segRel, sizePre, sizePost, preTree, postTree)
}
