package schedcache

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"sync"

	"resched/internal/arch"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// Digest is a canonical-content hash. The full-request digest is the
// cache key; the instance digest groups entries solving the same problem
// instance under different solvers or search options; the architecture
// digest scopes near-miss probes to one device.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex — the form the golden key
// vectors pin.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Key versioning: bump these when the canonical encoding changes in any
// way, so stale processes never exchange keys across incompatible formats
// (today the cache is in-process only, but the digest format is part of
// the wire-visible behavior via the golden vectors). v2 replaced the
// taskgraph-JSON graph encoding with the direct field stream below: the
// exact-hit path must stay O(hash), and reflective JSON encoding was the
// dominant cost of v1 lookups.
const (
	keyVersion      = "schedcache/v2"
	instanceVersion = "schedcache/v2-instance"
	archVersion     = "schedcache/v2-arch"
	graphVersion    = "schedcache/v2-graph"
)

// cacheKeys bundles everything one canonicalization pass produces. The
// similarity signature is deliberately absent: exact hits never need it,
// so the decorator computes it lazily on a miss (signatureOf).
type cacheKeys struct {
	full     Digest
	instance Digest
	arch     Digest
}

// Key returns the hex full-request digest for (req, solver) — the exact
// key the cache stores under. Exported for the golden-vector tests and
// the key-cost benchmark; the decorator uses the richer computeKeys.
func Key(req *solve.Request, solver string) string {
	return computeKeys(req, solver).full.String()
}

// canon accumulates the canonical byte stream hand-rolled: zigzag-varint
// integers and '|'-terminated strings instead of fmt/json, because this
// runs on every cache lookup and both reflective encoding (v1) and the
// hash over a bloated stream were measured as the bulk of the hit cost —
// varints keep the SHA-256 input small, which is where the remaining
// time goes. Strings carry the separator so adjacent fields can never
// re-associate ("ab","c" vs "a","bc"); varints are self-delimiting.
type canon struct {
	buf []byte
	// succ is the per-source scratch for edge sorting in graphDigest.
	succ []edgeTo
}

// edgeTo is one outgoing edge: its target and communication time.
type edgeTo struct {
	to   int
	comm int64
}

// canonPool recycles scratch buffers across lookups: key computation runs
// on every cache access, and without reuse the buffer growth (memmove +
// mallocgc) costs more than the hashing itself on small graphs.
var canonPool = sync.Pool{
	New: func() any { return &canon{buf: make([]byte, 0, 8192), succ: make([]edgeTo, 0, 64)} },
}

func (c *canon) reset() { c.buf = c.buf[:0] }

func (c *canon) str(s string) {
	c.buf = append(c.buf, s...)
	c.buf = append(c.buf, '|')
}

func (c *canon) int(v int64) {
	c.buf = binary.AppendVarint(c.buf, v)
}

func (c *canon) sum() Digest { return sha256.Sum256(c.buf) }

// computeKeys canonicalizes the request once: a graph digest over the
// declared task/implementation/edge fields (tasks in ID order, edges
// sorted — the same ordering taskgraph's JSON serialization pins), a
// fixed-field architecture digest, and one field per option the named
// solver actually reads. Options a solver ignores are deliberately
// excluded so, e.g., two PA requests differing only in Seed share one
// entry.
func computeKeys(req *solve.Request, solver string) cacheKeys {
	c := canonPool.Get().(*canon)
	defer canonPool.Put(c)
	gd := graphDigest(c, req.Graph)
	ad := archDigest(c, req.Arch)
	o := &req.Options

	c.reset()
	c.str(keyVersion)
	c.str(solver)
	c.buf = append(c.buf, gd[:]...)
	c.buf = append(c.buf, ad[:]...)
	c.int(b2i(o.ModuleReuse))
	fp := func() {
		c.int(int64(o.Floorplan.Method))
		c.int(int64(o.Floorplan.MaxCandidates))
		c.int(int64(o.Floorplan.MaxNodes))
	}
	switch solver {
	case "pa":
		c.int(b2i(o.SkipFloorplan))
		fp()
	case "par":
		// Workers shapes the per-worker RNG streams, so the resolved value
		// (0 = GOMAXPROCS) is part of the identity; the golden vectors only
		// pin explicit-Workers keys for that reason.
		fp()
		c.int(o.Seed)
		c.int(int64(resolvedWorkers(o.Workers)))
		c.int(int64(o.MaxIterations))
	case "is1", "is5":
		c.int(b2i(o.SkipFloorplan))
		fp()
		c.int(int64(o.MaxNodes))
	case "exact":
		c.int(int64(o.MaxNodes))
	case "robust":
		// The ladder's PA-R rung never forwards Workers, so it always runs
		// at GOMAXPROCS — encode that, not the unread Workers field.
		fp()
		c.int(o.Seed)
		c.int(int64(runtime.GOMAXPROCS(0)))
		c.int(int64(o.MaxIterations))
	default:
		// Unknown solver: assume it reads everything. Cacheable rejects
		// unknown names, so this arm only matters if the roster grows
		// without a key mask — conservative by construction.
		c.int(b2i(o.SkipFloorplan))
		fp()
		c.int(o.Seed)
		c.int(int64(o.Workers))
		c.int(int64(runtime.GOMAXPROCS(0)))
		c.int(int64(o.MaxIterations))
		c.int(int64(o.MaxNodes))
		c.int(int64(o.TimeBudget))
	}
	full := c.sum()

	c.reset()
	c.str(instanceVersion)
	c.buf = append(c.buf, gd[:]...)
	c.buf = append(c.buf, ad[:]...)
	c.int(b2i(o.ModuleReuse))
	c.int(b2i(o.SkipFloorplan))
	fp()
	instance := c.sum()

	return cacheKeys{full: full, instance: instance, arch: ad}
}

// graphDigest streams every schedule-relevant graph field: tasks in ID
// order with their implementations in declared order, then the edges in
// the sorted order taskgraph.Edges pins (per-source sorted targets here,
// which is the same total order without materializing the edge list).
func graphDigest(c *canon, g *taskgraph.Graph) Digest {
	c.reset()
	c.str(graphVersion)
	c.str(g.Name)
	c.int(int64(len(g.Tasks)))
	for _, t := range g.Tasks {
		c.str(t.Name)
		c.int(int64(len(t.Impls)))
		for i := range t.Impls {
			im := &t.Impls[i]
			c.str(im.Name)
			c.int(int64(im.Kind))
			c.int(im.Time)
			for _, r := range im.Res {
				c.int(int64(r))
			}
		}
	}
	for from := range g.Tasks {
		succ := c.succ[:0]
		for i, to := range g.Succ(from) {
			succ = append(succ, edgeTo{to, g.SuccComm(from)[i]})
		}
		slices.SortFunc(succ, func(a, b edgeTo) int { return cmp.Compare(a.to, b.to) })
		c.succ = succ[:0]
		for _, e := range succ {
			c.int(int64(from))
			c.int(int64(e.to))
			c.int(e.comm)
		}
	}
	return c.sum()
}

// archDigest streams every schedule-relevant architecture field.
func archDigest(c *canon, a *arch.Architecture) Digest {
	c.reset()
	c.str(archVersion)
	c.str(a.Name)
	c.int(int64(a.Processors))
	c.int(int64(a.Reconfigurators))
	c.int(int64(a.RecFreq))
	for _, b := range a.Bits {
		c.int(b)
	}
	for _, r := range a.MaxRes {
		c.int(int64(r))
	}
	if f := a.Fabric; f != nil {
		c.int(int64(f.Rows))
		c.int(int64(len(f.Columns)))
		for _, k := range f.Columns {
			c.int(int64(k))
		}
		for _, u := range f.UnitsPerCell {
			c.int(int64(u))
		}
	} else {
		c.str("nofabric")
	}
	return c.sum()
}

// b2i canonicalizes a bool into the stream.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// resolvedWorkers mirrors RSchedule's resolution: 0 means GOMAXPROCS.
// Negative values are rejected by the solver itself; they pass through so
// the (errored, never stored) request still hashes deterministically.
func resolvedWorkers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
