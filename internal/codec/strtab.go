// Shared string interning: one dictionary of tag/text strings that many
// payloads reference by dense varint index instead of re-spelling.
//
// Two sides cooperate:
//
//   - SharedStrings is the append side. An encoder interns strings while
//     building payloads; the entries added since a known base travel as a
//     strtab *delta* ahead of (or inside) the payload that needs them.
//     Truncate rolls back a failed append, keeping the in-memory table in
//     lockstep with what durably reached disk.
//   - StrTab is the decode side. It replays deltas with Apply: a delta
//     based at 0 resets the table (a segment or page boundary), a delta
//     based exactly at the current length appends, anything else is a
//     desynchronization error, never a misread.
//
// Delta payload layout (also the KindStrTab frame payload):
//
//	[uvarint base] [uvarint count] [count × length-prefixed entries]
//
// The base is the table length the entries extend; a decoder holding a
// table of a different length must refuse the delta.
package codec

import (
	"fmt"
	"unsafe"
)

// StrTabVersion is the revision of the strtab delta payload layout.
const StrTabVersion = 1

// maxStrTabEntries caps a table's size; a table needs one entry per
// distinct string, so real workloads sit orders of magnitude below this.
const maxStrTabEntries = 1 << 26

// SharedStrings is the append-side interning table: strings get dense
// indices in first-sight order, and the entries past any remembered base
// form a delta for the decode side. Not safe for concurrent use.
type SharedStrings struct {
	index map[string]uint64
	list  []string
}

// Intern returns the table index for s, adding it on first sight.
func (t *SharedStrings) Intern(s string) uint64 {
	if i, ok := t.index[s]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[string]uint64)
	}
	i := uint64(len(t.list))
	t.index[s] = i
	t.list = append(t.list, s)
	return i
}

// Len reports the number of interned strings.
func (t *SharedStrings) Len() int { return len(t.list) }

// Strings returns the interned strings in index order. The slice aliases
// the table; callers must not modify it and must not hold it across
// Intern/Truncate/Reset.
func (t *SharedStrings) Strings() []string { return t.list }

// Truncate discards every entry at index n and beyond, rolling the table
// back to length n. It is the undo for Intern calls made while building
// a payload that then failed to commit.
func (t *SharedStrings) Truncate(n int) {
	for _, s := range t.list[min(n, len(t.list)):] {
		delete(t.index, s)
	}
	t.list = t.list[:min(n, len(t.list))]
}

// Reset empties the table (a segment rotation: the next delta is based
// at 0 and the new segment is self-contained).
func (t *SharedStrings) Reset() { t.Truncate(0) }

// AppendDelta appends the delta payload covering entries [base, Len).
func (t *SharedStrings) AppendDelta(dst []byte, base int) []byte {
	return AppendStrTabPayload(dst, uint64(base), t.list[min(base, len(t.list)):])
}

// StrTab is the decode-side table: a replay of the append side built by
// applying deltas in order.
type StrTab struct {
	list []string
}

// Apply merges one decoded delta. A base of 0 resets the table — the
// encoder started a fresh table at a segment or page boundary — and a
// base equal to the current length appends. Any other base means the
// decoder missed or replayed a delta; Apply refuses rather than misalign
// every later string reference.
func (t *StrTab) Apply(base uint64, entries []string) error {
	switch {
	case base == 0:
		t.list = append(t.list[:0:0], entries...)
	case base == uint64(len(t.list)):
		t.list = append(t.list, entries...)
	default:
		return fmt.Errorf("%w: strtab delta based at %d, table holds %d entries", ErrInvalid, base, len(t.list))
	}
	return nil
}

// Len reports the number of entries replayed so far.
func (t *StrTab) Len() int { return len(t.list) }

// Strings returns the replayed table in index order. The slice aliases
// the StrTab; callers must not modify it.
func (t *StrTab) Strings() []string { return t.list }

// Reset empties the table (a segment boundary on the replay side).
func (t *StrTab) Reset() { t.list = t.list[:0] }

// AppendStrTabPayload appends a strtab delta payload: entries extending a
// table of length base.
func AppendStrTabPayload(dst []byte, base uint64, entries []string) []byte {
	dst = AppendUvarint(dst, base)
	dst = AppendUvarint(dst, uint64(len(entries)))
	for _, s := range entries {
		dst = AppendString(dst, s)
	}
	return dst
}

// DecodeStrTabPayload decodes one strtab delta payload. With zeroCopy the
// returned entries are unsafe views into payload — valid only while the
// backing buffer lives and is never modified (a store document read whole,
// a buffer pinned by the caller); without it every entry is a fresh copy.
// The declared entry count is capped against the bytes present, so forged
// counts cannot force large allocations.
func DecodeStrTabPayload(payload []byte, zeroCopy bool) (base uint64, entries []string, err error) {
	r := NewReader(payload)
	base = r.Uvarint()
	n := r.Uvarint()
	if r.Err() == nil && (n > uint64(r.Len()) || n > maxStrTabEntries) {
		return 0, nil, fmt.Errorf("%w: strtab declares %d entries with %d bytes remaining", ErrInvalid, n, r.Len())
	}
	if base > maxStrTabEntries {
		return 0, nil, fmt.Errorf("%w: strtab base %d beyond table cap", ErrInvalid, base)
	}
	entries = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		if zeroCopy {
			entries = append(entries, unsafeString(r.Bytes()))
		} else {
			entries = append(entries, r.String())
		}
	}
	if err := r.Finish(); err != nil {
		return 0, nil, fmt.Errorf("strtab payload: %w", err)
	}
	return base, entries, nil
}

// DecodeStrTabDelta decodes a delta from the front of a payload stream
// (a Reader mid-record), without requiring it to end there.
func DecodeStrTabDelta(r *Reader, zeroCopy bool) (base uint64, entries []string, err error) {
	base = r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil {
		return 0, nil, r.Err()
	}
	if n > uint64(r.Len()) || n > maxStrTabEntries {
		return 0, nil, fmt.Errorf("%w: strtab declares %d entries with %d bytes remaining", ErrInvalid, n, r.Len())
	}
	if base > maxStrTabEntries {
		return 0, nil, fmt.Errorf("%w: strtab base %d beyond table cap", ErrInvalid, base)
	}
	entries = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		if zeroCopy {
			entries = append(entries, unsafeString(r.Bytes()))
		} else {
			entries = append(entries, r.String())
		}
	}
	if r.Err() != nil {
		return 0, nil, r.Err()
	}
	return base, entries, nil
}

// StringTableView reads a table serialized by StringTable.AppendTo, like
// Reader.StringTable, but the returned entries alias the Reader's input
// instead of copying — valid only while the backing buffer lives and is
// never modified.
func (r *Reader) StringTableView() []string {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("string table declares %d entries with %d bytes remaining", n, len(r.data)-r.off)
		return nil
	}
	list := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		list = append(list, unsafeString(r.Bytes()))
		if r.err != nil {
			return nil
		}
	}
	return list
}

// unsafeString views b as a string without copying. The result is valid
// exactly as long as b's backing array lives unmodified; zero-copy
// decoders confine it to buffers that are never modified afterwards
// (whole-file reads retained by the decoded tree).
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
