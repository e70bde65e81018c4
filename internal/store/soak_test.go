package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/xmlcodec"
)

// TestRepeatedLoadsStayFlat loads one v5 snapshot many times, dropping
// each tree, and checks that nothing a load leaves behind accumulates:
// the live heap after a collection stays flat, and on Linux the process
// address space grows by far less than the loaded bytes. A load path that
// pins a buffer or a mapping per call fails the second check.
func TestRepeatedLoadsStayFlat(t *testing.T) {
	const loads = 500
	dir := t.TempDir()
	// Few nodes with long texts: a document of about 300 KB that decodes
	// quickly, so the loads are cheap while the bytes they would pin are
	// well above the runtime's own address-space steps.
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&b, "<movie><title>%d %s</title><year>%d</year></movie>", i, strings.Repeat("soak ", 100), 1900+i)
	}
	b.WriteString("</catalog>")
	tree, err := xmlcodec.DecodeString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.Save(dir, tree, nil, "soak")
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, m.DocumentFile))
	if err != nil {
		t.Fatal(err)
	}
	page := int64(os.Getpagesize())
	docBytes := (fi.Size() + page - 1) / page * page

	load := func() {
		if _, err := store.Load(dir); err != nil {
			t.Fatal(err)
		}
	}
	load() // warm up: first-use allocations are not growth
	heap0 := liveHeap()
	vm0, vmOK := vmSize(t)
	for i := 0; i < loads; i++ {
		load()
	}
	heap1 := liveHeap()
	vm1, _ := vmSize(t)

	if grew := int64(heap1) - int64(heap0); grew > 4*docBytes {
		t.Errorf("live heap grew %d bytes over %d loads of a %d-byte document", grew, loads, docBytes)
	}
	if !vmOK {
		t.Log("no /proc/self/statm: address-space check skipped")
		return
	}
	if grew, limit := vm1-vm0, loads*docBytes/2; grew >= limit {
		t.Errorf("address space grew %d bytes over %d loads of a %d-byte document (limit %d)", grew, loads, docBytes, limit)
	}
}

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// vmSize returns the process's virtual memory size in bytes from the
// first field of /proc/self/statm; ok is false off Linux.
func vmSize(t *testing.T) (int64, bool) {
	if runtime.GOOS != "linux" {
		return 0, false
	}
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatalf("read statm: %v", err)
	}
	pages, err := strconv.ParseInt(strings.Fields(string(data))[0], 10, 64)
	if err != nil {
		t.Fatalf("parse statm %q: %v", data, err)
	}
	return pages * int64(os.Getpagesize()), true
}
