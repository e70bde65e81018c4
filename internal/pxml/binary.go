// Flat arena binary encoding of probabilistic documents — the payload
// format store v4 snapshots, binary WAL records and binary replication
// frames all carry. Where the XML codec rebuilds a tree node by node
// (re-interning each through the Builder), the arena form writes the
// physical DAG once in dependency order and reads it back into a single
// contiguous allocation:
//
//	[version 1B]
//	[string table: uvarint count, length-prefixed entries]
//	[uvarint node count]
//	[node records, children strictly before parents]
//	[root digest, 8B little endian]
//
// A node record is [kind 1B][kind fields][uvarint child count][child
// indices as uvarints]. Elem fields are the tag and text as string-table
// indices; poss fields are the 8-byte probability bits. Child indices
// always point at earlier records, so the encoding is acyclic by
// construction and physical sharing survives the round trip exactly.
// The trailing digest is the structural digest (Tree.Digest) of the
// encoded document, verified on decode.
//
// DecodeArena accepts arbitrary bytes safely: every declared count is
// capped against the input remaining, node records are re-validated
// against the layering invariants (Tree.Validate would accept every
// decoded tree), and bottom-up saturating estimates of the logical node
// count and world-count magnitude reject crafted DAGs whose summaries
// would explode before any summary is computed.
package pxml

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/codec"
)

// BinaryVersion is the self-contained revision of the arena encoding:
// the payload carries its own local string table.
const BinaryVersion = 1

// BinaryVersionShared is the shared-table revision: the payload carries
// no string table of its own — elem tag/text fields are indices into an
// external table (a codec strtab) supplied at decode time. Store v5
// documents and WAL v3 records use it so repeated tags across documents
// and ops are spelled once per table, not once per payload.
const BinaryVersionShared = 2

// Arena decode counters for /stats: total decodes, how many ran in
// zero-copy mode, and how many were shared-table payloads.
var arenaDecodes, arenaZeroCopy, arenaShared atomic.Uint64

// ArenaDecodeStats reports the process-wide arena decode counters.
func ArenaDecodeStats() (decodes, zeroCopy, shared uint64) {
	return arenaDecodes.Load(), arenaZeroCopy.Load(), arenaShared.Load()
}

// DecodeArenaOptions tunes DecodeArenaWith.
type DecodeArenaOptions struct {
	// Strings is the external table BinaryVersionShared payloads resolve
	// their tag/text indices against. Self-contained payloads ignore it.
	Strings []string
	// ZeroCopy keeps node tag/text strings as views into the input
	// buffer instead of copies. The caller must guarantee the buffer
	// outlives every tree that shares nodes with the decoded one and is
	// never modified — a heap buffer the decoded strings themselves
	// keep alive. Applies to the local table of self-contained payloads;
	// shared-table payloads inherit whatever lifetime opts.Strings has.
	ZeroCopy bool
	// ExpectDigest, when set, replaces the decode-side digest
	// recomputation: the trailer digest is compared against this
	// already-known value instead of re-deriving it from the decoded
	// tree. Recomputation allocates a Summary per physical node, which
	// is exactly what the zero-copy load path exists to avoid; a caller
	// holding the manifest's digest can skip it without losing the
	// end-to-end check.
	ExpectDigest *uint64
	// ExpectLogical, when positive, is checked against the decoder's own
	// bottom-up logical node count — the manifest cross-check that Load
	// otherwise pays a full NodeCount() traversal for.
	ExpectLogical int64
}

// arenaOrder computes the postorder write order and node→index map the
// arena encodings share.
func (t *Tree) arenaOrder() (order []*Node, index map[*Node]uint64) {
	index = map[*Node]uint64{}
	// Iterative postorder so document depth never limits the encoder.
	type frame struct {
		n    *Node
		next int
	}
	stack := []frame{{n: t.root}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if _, done := index[top.n]; done {
			stack = stack[:len(stack)-1]
			continue
		}
		if top.next < len(top.n.kids) {
			k := top.n.kids[top.next]
			top.next++
			if _, done := index[k]; !done {
				stack = append(stack, frame{n: k})
			}
			continue
		}
		index[top.n] = uint64(len(order))
		order = append(order, top.n)
		stack = stack[:len(stack)-1]
	}
	return order, index
}

// appendArenaBody writes the node records, interning strings through
// intern.
func appendArenaBody(dst []byte, order []*Node, index map[*Node]uint64, intern func(string) uint64) []byte {
	for _, n := range order {
		dst = append(dst, byte(n.kind))
		switch n.kind {
		case KindElem:
			dst = codec.AppendUvarint(dst, intern(n.tag))
			dst = codec.AppendUvarint(dst, intern(n.text))
		case KindPoss:
			dst = codec.AppendFloat64(dst, n.prob)
		}
		dst = codec.AppendUvarint(dst, uint64(len(n.kids)))
		for _, k := range n.kids {
			dst = codec.AppendUvarint(dst, index[k])
		}
	}
	return dst
}

const (
	// maxLogicalNodes caps the decoded document's logical node count
	// (occurrences, counting shared subtrees once per reference). Deep
	// sharing lets a few hundred physical nodes imply astronomically many
	// logical ones; beyond 2^40 nothing downstream (stats, manifests)
	// could represent the document meaningfully anyway.
	maxLogicalNodes = uint64(1) << 40
	// maxWorldBits caps the magnitude of the world count: the number of
	// bits of the big.Int Summary would compute. 2^(2^20) worlds is far
	// beyond any legitimate document; without the cap a small crafted
	// input could make the digest check allocate megabit integers.
	maxWorldBits = uint64(1) << 20
)

// AppendBinary appends the document in flat arena form. The encoding
// preserves physical sharing: a subtree referenced from several parents
// is written once and referenced by index.
func (t *Tree) AppendBinary(dst []byte) []byte {
	var strings codec.StringTable
	order, index := t.arenaOrder()
	body := appendArenaBody(nil, order, index, strings.Intern)
	dst = append(dst, BinaryVersion)
	dst = strings.AppendTo(dst)
	dst = codec.AppendUvarint(dst, uint64(len(order)))
	dst = append(dst, body...)
	return codec.AppendUint64(dst, t.Digest())
}

// AppendBinaryShared appends the document in shared-table arena form:
// tag/text strings are interned into tab and the payload carries only
// their indices. A decoder needs tab's entries (shipped separately as a
// strtab delta) to resolve them.
func (t *Tree) AppendBinaryShared(dst []byte, tab *codec.SharedStrings) []byte {
	order, index := t.arenaOrder()
	dst = append(dst, BinaryVersionShared)
	dst = codec.AppendUvarint(dst, uint64(len(order)))
	dst = appendArenaBody(dst, order, index, tab.Intern)
	return codec.AppendUint64(dst, t.Digest())
}

// DecodeArena decodes a document encoded by AppendBinary: one sequential
// pass over the input into one contiguous node arena, then a digest
// check. Any input that is not a valid encoding of a valid document —
// truncation, layering violations, forged counts, digest mismatch —
// returns an error; DecodeArena never panics. The decoded tree satisfies
// every Tree.Validate invariant by construction.
func DecodeArena(data []byte) (*Tree, error) {
	return DecodeArenaWith(data, DecodeArenaOptions{})
}

// DecodeArenaWith decodes a self-contained (BinaryVersion) or
// shared-table (BinaryVersionShared) arena payload under opts. It keeps
// every safety property of DecodeArena; the opts only change where
// strings come from and how the trailer digest is checked.
func DecodeArenaWith(data []byte, opts DecodeArenaOptions) (*Tree, error) {
	r := codec.NewReader(data)
	v := r.Byte()
	if r.Err() == nil && v != BinaryVersion && v != BinaryVersionShared {
		return nil, fmt.Errorf("pxml: unsupported binary document version %d (want %d or %d)", v, BinaryVersion, BinaryVersionShared)
	}
	var strs []string
	if v == BinaryVersionShared {
		strs = opts.Strings
	} else if opts.ZeroCopy {
		strs = r.StringTableView()
	} else {
		strs = r.StringTable()
	}
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Every node record costs at least two bytes (kind + child count), so
	// a count beyond half the remaining input is forged. This also bounds
	// the arena allocation by the input size.
	if count == 0 || count > uint64(r.Len())/2+1 {
		return nil, fmt.Errorf("%w: implausible node count %d for %d remaining bytes", codec.ErrInvalid, count, r.Len())
	}
	arena := make([]Node, count)
	var (
		idxBuf  []uint64 // child indices of all nodes, concatenated
		spans   = make([]int, count)
		logical = make([]uint64, count)
		wbits   = make([]uint64, count)
		refs    = make([]uint64, count) // incoming reference counts
	)
	for i := uint64(0); i < count; i++ {
		n := &arena[i]
		n.kind = Kind(r.Byte())
		switch n.kind {
		case KindProb:
		case KindPoss:
			p := r.Float64()
			if r.Err() == nil {
				if math.IsNaN(p) || p <= 0 || p > 1+ProbEpsilon {
					return nil, fmt.Errorf("%w: node %d probability %g out of range (0,1]", codec.ErrInvalid, i, p)
				}
				if p > 1 {
					p = 1
				}
				n.prob = p
			}
		case KindElem:
			tag := r.Uvarint()
			text := r.Uvarint()
			if r.Err() == nil {
				if tag >= uint64(len(strs)) || text >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: node %d references string %d of %d", codec.ErrInvalid, i, max(tag, text), len(strs))
				}
				if strs[tag] == "" {
					return nil, fmt.Errorf("%w: node %d has an empty tag", codec.ErrInvalid, i)
				}
				n.tag, n.text = strs[tag], strs[text]
			}
		default:
			if r.Err() == nil {
				return nil, fmt.Errorf("%w: node %d has unknown kind %d", codec.ErrInvalid, i, n.kind)
			}
		}
		nkids := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// A child index costs at least one byte.
		if nkids > uint64(r.Len()) {
			return nil, fmt.Errorf("%w: node %d declares %d children with %d bytes remaining", codec.ErrInvalid, i, nkids, r.Len())
		}
		if n.kind == KindProb && nkids == 0 {
			return nil, fmt.Errorf("%w: node %d is a prob node without possibilities", codec.ErrInvalid, i)
		}
		var (
			logicalSum uint64 = 1
			bitsSum    uint64
			bitsMax    uint64
			probSum    float64
		)
		wantKid := childKind(n.kind)
		for j := uint64(0); j < nkids; j++ {
			k := r.Uvarint()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if k >= i {
				return nil, fmt.Errorf("%w: node %d references child %d out of order", codec.ErrInvalid, i, k)
			}
			if arena[k].kind != wantKid {
				return nil, fmt.Errorf("%w: node %d (%v) child %d is %v, want %v", codec.ErrInvalid, i, n.kind, k, arena[k].kind, wantKid)
			}
			idxBuf = append(idxBuf, k)
			refs[k]++
			logicalSum = satAdd(logicalSum, logical[k])
			bitsSum = satAdd(bitsSum, wbits[k])
			if wbits[k] > bitsMax {
				bitsMax = wbits[k]
			}
			if n.kind == KindProb {
				probSum += arena[k].prob
			}
		}
		spans[i] = len(idxBuf)
		if n.kind == KindProb && math.Abs(probSum-1) > ProbEpsilon*float64(nkids+1) {
			return nil, fmt.Errorf("%w: node %d possibility probabilities sum to %g, want 1", codec.ErrInvalid, i, probSum)
		}
		logical[i] = logicalSum
		if logicalSum > maxLogicalNodes {
			return nil, fmt.Errorf("%w: logical node count exceeds %d", codec.ErrInvalid, maxLogicalNodes)
		}
		// Worlds sum across alternatives (prob) and multiply across
		// independent children (poss, elem); bound the bit length of the
		// result without computing it.
		if n.kind == KindProb {
			wbits[i] = satAdd(bitsMax, uint64(bits.Len64(nkids))+1)
		} else {
			wbits[i] = satAdd(bitsSum, 1)
		}
		if wbits[i] > maxWorldBits {
			return nil, fmt.Errorf("%w: world count magnitude exceeds 2^%d", codec.ErrInvalid, maxWorldBits)
		}
	}
	digest := r.Uint64()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	for i, rc := range refs[:count-1] {
		if rc == 0 {
			return nil, fmt.Errorf("%w: node %d is unreachable from the root", codec.ErrInvalid, i)
		}
	}
	root := &arena[count-1]
	if root.kind != KindProb {
		return nil, fmt.Errorf("%w: root must be a prob node, got %v", codec.ErrInvalid, root.kind)
	}
	// Wire up the kids only now that the arena is fully allocated: the
	// pointers stay valid because the backing array never moves again.
	kids := make([]*Node, len(idxBuf))
	for i, k := range idxBuf {
		kids[i] = &arena[k]
	}
	prev := 0
	for i := range arena {
		if end := spans[i]; end > prev {
			arena[i].kids = kids[prev:end:end]
			prev = end
		}
	}
	t := &Tree{root: root}
	if opts.ExpectLogical > 0 && logical[count-1] != uint64(opts.ExpectLogical) {
		return nil, fmt.Errorf("%w: document holds %d logical nodes, manifest says %d", codec.ErrInvalid, logical[count-1], opts.ExpectLogical)
	}
	if opts.ExpectDigest != nil {
		// The hot path: the caller already knows the digest (from a
		// checksummed manifest); comparing trailers skips the per-node
		// Summary allocation a recomputation would pay.
		if digest != *opts.ExpectDigest {
			return nil, fmt.Errorf("%w: document digest trailer %016x differs from expected %016x", codec.ErrInvalid, digest, *opts.ExpectDigest)
		}
	} else if got := t.Digest(); got != digest {
		return nil, fmt.Errorf("%w: document digest %016x differs from trailer %016x", codec.ErrInvalid, got, digest)
	}
	arenaDecodes.Add(1)
	if opts.ZeroCopy {
		arenaZeroCopy.Add(1)
	}
	if v == BinaryVersionShared {
		arenaShared.Add(1)
	}
	return t, nil
}

// childKind returns the only kind the layered model allows below k.
func childKind(k Kind) Kind {
	switch k {
	case KindProb:
		return KindPoss
	case KindPoss:
		return KindElem
	default:
		return KindProb
	}
}

func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}
