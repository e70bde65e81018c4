package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dtd"
	"repro/internal/oracle"
	"repro/internal/pxml"
	"repro/internal/xmlcodec"
)

// ruleSpec is the servers' -rules flag; movieRules must build the same
// rules in process.
const ruleSpec = "genre,title,year"

func movieRules() []oracle.Rule {
	return []oracle.Rule{oracle.GenreRule(), oracle.TitleRule(), oracle.YearRule()}
}

// Env is the on-disk environment of one run.
type Env struct {
	Work    string // scratch directory of this run
	DTDPath string
	Schema  *dtd.Schema // parsed from DTDPath, exactly as the servers do
	Golden  string      // pre-built primary data directory
	// Tree and Seq are the golden database's document and last journal
	// sequence.
	Tree *pxml.Tree
	Seq  uint64
	// SnapshotSeq is the sequence the golden snapshot reflects; the
	// write-ahead tail holds the rest.
	SnapshotSeq uint64
}

// coreConfig is the configuration `imprecise serve -dtd -rules` gives
// every database, with its defaults.
func (e *Env) coreConfig() core.Config {
	return core.Config{Schema: e.Schema, Rules: movieRules()}
}

// serverArgs are the flags both servers share.
func (e *Env) serverArgs() []string {
	return []string{"-root", "catalog", "-dtd", e.DTDPath, "-rules", ruleSpec}
}

// prepareEnv writes the schema file and builds the golden data
// directory: a compacted snapshot of the filler catalog with the §V
// confusing region integrated, plus a write-ahead tail of stream sources.
func prepareEnv(work string, in *Inputs) (*Env, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	e := &Env{Work: work, DTDPath: filepath.Join(work, "movie.dtd"), Golden: filepath.Join(work, "golden")}
	text := datagen.MovieDTD().String()
	if err := os.WriteFile(e.DTDPath, []byte(text), 0o644); err != nil {
		return nil, err
	}
	schema, err := dtd.ParseString(text)
	if err != nil {
		return nil, fmt.Errorf("parsing the written DTD: %w", err)
	}
	e.Schema = schema
	cat, err := catalog.Open(e.Golden, catalog.Options{Config: e.coreConfig(), RootTag: "catalog", CompactEvery: -1})
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	db, err := cat.Create(dbName)
	if err != nil {
		return nil, err
	}
	cdb := db.Core()
	if err := cdb.ReplaceTree(in.Filler); err != nil {
		return nil, err
	}
	for _, t := range []*pxml.Tree{in.ConfA, in.ConfB} {
		if _, err := cdb.IntegrateTree(t); err != nil {
			return nil, fmt.Errorf("integrating the confusing region: %w", err)
		}
	}
	if err := db.Compact(); err != nil {
		return nil, err
	}
	e.SnapshotSeq = db.LastSeq()
	for i, src := range in.Tail {
		t, err := xmlcodec.DecodeString(src.XML)
		if err != nil {
			return nil, err
		}
		if _, err := cdb.IntegrateTree(t); err != nil {
			return nil, fmt.Errorf("integrating tail source %d: %w", i, err)
		}
	}
	e.Tree, e.Seq = cdb.TreeSeq()
	return e, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if info.Name() == "LOCK" {
			return nil // the catalog's flock file; each copy takes its own
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir. It only
// describes the run, so an unreadable entry is skipped, not an error.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}
