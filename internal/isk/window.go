package isk

import (
	"fmt"

	"resched/internal/budget"
	"resched/internal/resources"
	"resched/internal/schedule"
)

// optKind discriminates the mapping choice of one window decision.
type optKind int

const (
	optSW        optKind = iota // software on a processor
	optNewRegion                // hardware in a freshly created region
	optExisting                 // hardware in an existing region (reconfigure)
	optReuse                    // hardware in an existing region (module reuse)
)

// option is one candidate decision for a window task, replayable against
// the timeline state it was generated from.
type option struct {
	task   int
	impl   int
	kind   optKind
	proc   int // optSW
	region int // optExisting / optReuse: region id
}

// applied is the value undo record of one option application: the kind
// selects which of the saved fields undo restores.
type applied struct {
	task                  int
	kind                  optKind
	proc, region          int
	oldMak, oldSum, oldLB int64
	// oldFree is the processor's (optSW) or region's previous free time.
	oldFree   int64
	oldLast   int
	oldLoaded string
	// ch and slot locate the controller slot an optExisting reserved.
	ch, slot int
	// fp is the footprint an optNewRegion added to usedRes.
	fp resources.Vector
}

// candidate is one shortlisted existing-region option with its resulting
// task end; ok marks a filled shortlist slot.
type candidate struct {
	opt option
	end int64
	ok  bool
}

// options appends the candidate decisions for task t under the current
// timeline to out and returns it. To keep the window search tractable the
// existing-region choices are restricted to the most promising candidates
// per implementation: the module-reuse match and the two regions yielding
// the earliest task end. (Ref [6]'s MILP considers all regions; the
// shortlist preserves the decisions that matter — competition between
// window tasks for the same region is still explored because each task
// carries its own shortlist.)
func (st *timeline) options(out []option, t int) []option {
	if p, ok := st.pins[t]; ok {
		// The committed prefix already reconfigured a region for t: the only
		// legal decision is executing there with the committed implementation
		// (module reuse semantics — no new reconfiguration).
		return append(out, option{task: t, impl: p.impl, kind: optReuse, region: p.region})
	}
	task := st.g.Tasks[t]
	// Software choices: the earliest-free processor per SW implementation
	// (cores are identical, so the earliest-free one dominates).
	if st.a.Processors > 0 {
		best := 0
		for p := 1; p < st.a.Processors; p++ {
			if st.procFree[p] < st.procFree[best] {
				best = p
			}
		}
		for _, i := range st.swImpls[t] {
			out = append(out, option{task: t, impl: i, kind: optSW, proc: best})
		}
	}
	ready := st.ready(t)
	for _, i := range st.hwImpls[t] {
		im := &task.Impls[i]
		if st.usedRes.Add(st.footprint(im.Res)).Fits(st.maxRes) {
			out = append(out, option{task: t, impl: i, kind: optNewRegion})
		}
		if st.exhaustive {
			// Exact mode: every compatible region is a candidate.
			for ri := range st.regions {
				r := &st.regions[ri]
				if !im.Res.Fits(r.res) || st.locked(r) {
					continue
				}
				if st.moduleReuse && r.loaded == im.Name {
					out = append(out, option{task: t, impl: i, kind: optReuse, region: r.id})
				} else {
					out = append(out, option{task: t, impl: i, kind: optExisting, region: r.id})
				}
			}
			continue
		}
		// Existing regions: shortlist by resulting end time.
		var reuse, best1, best2 candidate
		for ri := range st.regions {
			r := &st.regions[ri]
			if !im.Res.Fits(r.res) || st.locked(r) {
				continue
			}
			if st.moduleReuse && r.loaded == im.Name {
				s := ready
				if r.freeAt > s {
					s = r.freeAt
				}
				c := candidate{opt: option{task: t, impl: i, kind: optReuse, region: r.id}, end: s + im.Time, ok: true}
				if !reuse.ok || c.end < reuse.end {
					reuse = c
				}
				continue
			}
			_, rs := st.slotFor(st.reconfLowerBound(r, ready), r.reconfTime)
			s := rs + r.reconfTime
			if ready > s {
				s = ready
			}
			c := candidate{opt: option{task: t, impl: i, kind: optExisting, region: r.id}, end: s + im.Time, ok: true}
			switch {
			case !best1.ok || c.end < best1.end:
				best1, best2 = c, best1
			case !best2.ok || c.end < best2.end:
				best2 = c
			}
		}
		for _, c := range [...]candidate{reuse, best1, best2} {
			if c.ok {
				out = append(out, c.opt)
			}
		}
	}
	return out
}

// apply executes an option on the timeline and returns its undo record.
// When commit is true the reconfiguration record (if any) is appended for
// the final schedule. An option with an unknown kind — impossible for
// options produced by the enumerator — is reported as an error, not a
// panic, so a corrupted plan cannot crash a library caller.
func (st *timeline) apply(o option, commit bool) (applied, error) {
	im := &st.g.Tasks[o.task].Impls[o.impl]
	ready := st.ready(o.task)
	ap := applied{task: o.task, kind: o.kind, proc: o.proc, region: o.region,
		oldMak: st.makespan, oldSum: st.sumEnds, oldLB: st.lb}
	var start int64

	switch o.kind {
	case optSW:
		ap.oldFree = st.procFree[o.proc]
		start = max(ready, ap.oldFree)
		st.target[o.task] = schedule.Target{Kind: schedule.OnProcessor, Index: o.proc}
		st.procFree[o.proc] = start + im.Time

	case optNewRegion:
		ap.fp = st.footprint(im.Res)
		ap.region = len(st.regions)
		start = ready
		st.regions = append(st.regions, iskRegion{
			id:         ap.region,
			res:        im.Res,
			reconfTime: st.a.ReconfTime(im.Res),
			freeAt:     start + im.Time,
			loaded:     im.Name,
			lastTask:   o.task,
			pinned:     -1,
		})
		st.usedRes = st.usedRes.Add(ap.fp)
		st.target[o.task] = schedule.Target{Kind: schedule.OnRegion, Index: ap.region}

	case optReuse:
		r := &st.regions[o.region]
		ap.oldFree, ap.oldLast = r.freeAt, r.lastTask
		start = max(ready, r.freeAt)
		r.freeAt = start + im.Time
		r.lastTask = o.task
		st.target[o.task] = schedule.Target{Kind: schedule.OnRegion, Index: r.id}

	case optExisting:
		r := &st.regions[o.region]
		ap.oldFree, ap.oldLast, ap.oldLoaded = r.freeAt, r.lastTask, r.loaded
		// Earliest controller slot after the region falls idle; with
		// prefetching this may lie well before the task is ready.
		ch, rs := st.slotFor(st.reconfLowerBound(r, ready), r.reconfTime)
		ap.ch, ap.slot = ch, st.insertSlot(ch, rs, r.reconfTime)
		start = max(ready, rs+r.reconfTime)
		if commit {
			st.reconfs = append(st.reconfs, schedule.Reconfiguration{
				Region:  r.id,
				InTask:  ap.oldLast,
				OutTask: o.task,
				Start:   rs,
				End:     rs + r.reconfTime,
			})
		}
		r.freeAt = start + im.Time
		r.lastTask = o.task
		r.loaded = im.Name
		st.target[o.task] = schedule.Target{Kind: schedule.OnRegion, Index: r.id}

	default:
		return applied{}, fmt.Errorf("isk: unknown option kind %d", o.kind)
	}

	st.impl[o.task] = o.impl
	st.start[o.task] = start
	st.end[o.task] = start + im.Time
	st.sumEnds += st.end[o.task]
	if st.end[o.task] > st.makespan {
		st.makespan = st.end[o.task]
	}
	if st.tails != nil {
		if c := st.end[o.task] + st.tails[o.task]; c > st.lb {
			st.lb = c
		}
	}
	return ap, nil
}

// undo reverts the option application ap recorded; applications must be
// undone in reverse order.
func (st *timeline) undo(ap applied) {
	switch ap.kind {
	case optSW:
		st.procFree[ap.proc] = ap.oldFree
	case optNewRegion:
		st.regions = st.regions[:ap.region]
		st.usedRes = st.usedRes.Sub(ap.fp)
	case optReuse:
		r := &st.regions[ap.region]
		r.freeAt, r.lastTask = ap.oldFree, ap.oldLast
	case optExisting:
		st.removeSlot(ap.ch, ap.slot)
		r := &st.regions[ap.region]
		r.freeAt, r.lastTask, r.loaded = ap.oldFree, ap.oldLast, ap.oldLoaded
	}
	st.impl[ap.task] = -1
	st.makespan, st.sumEnds, st.lb = ap.oldMak, ap.oldSum, ap.oldLB
}

// windowSearch is the branch-and-bound state of one window solve. Its
// buffers live on the timeline and are reused by every window: readyBuf and
// optBuf hold one row per search depth, because a row stays live while the
// deeper levels below it run.
type windowSearch struct {
	window     []int
	cur, best  []option
	found      bool
	bestMak    int64
	bestSum    int64
	nodeBudget int
	nodes      *int
	bud        *budget.Budget
	readyBuf   [][]int
	optBuf     [][]option
}

// solveWindow finds the window decisions minimising (makespan, Σ ends) by
// exhaustive branch and bound over task orders and options, then commits
// the best plan to the timeline. The budget is charged per explored node;
// on exhaustion the search stops with a typed error (matching
// budget.ErrExhausted) — a half-solved window cannot be emitted, so unlike
// the per-window node cap there is no incumbent to fall back on.
func (st *timeline) solveWindow(window []int, maxNodes int, nodes *int, bud *budget.Budget) error {
	plan, err := st.searchWindow(window, maxNodes, nodes, bud)
	if err != nil {
		return err
	}
	for _, o := range plan {
		if _, err := st.apply(o, true); err != nil {
			return err
		}
	}
	return nil
}

// searchWindow runs the window branch and bound and returns the best plan,
// leaving the timeline as it found it. The plan aliases the search buffers
// and is valid until the next search.
func (st *timeline) searchWindow(window []int, maxNodes int, nodes *int, bud *budget.Budget) ([]option, error) {
	ws := &st.ws
	ws.window, ws.nodes, ws.bud = window, nodes, bud
	ws.cur, ws.best = ws.cur[:0], ws.best[:0]
	ws.found, ws.bestMak, ws.bestSum = false, 0, 0
	ws.nodeBudget = maxNodes
	for len(ws.readyBuf) < len(window) {
		ws.readyBuf = append(ws.readyBuf, nil)
		ws.optBuf = append(ws.optBuf, nil)
	}
	if err := st.dfs(len(window)); err != nil {
		return nil, err
	}
	if !ws.found {
		return nil, fmt.Errorf("isk: window search found no feasible plan (node budget %d)", maxNodes)
	}
	return ws.best, nil
}

// readyTasks lists, into buf, the unscheduled window tasks whose
// predecessors are all scheduled (committed or within the current partial
// plan), in window order.
func (st *timeline) readyTasks(buf []int) []int {
	out := buf[:0]
	for _, t := range st.ws.window {
		if st.impl[t] >= 0 {
			continue
		}
		ok := true
		for _, p := range st.g.Pred(t) {
			if st.impl[p] < 0 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// dfs explores the decisions for the remaining unscheduled window tasks.
func (st *timeline) dfs(remaining int) error {
	ws := &st.ws
	if remaining == 0 {
		if !ws.found || st.lb < ws.bestMak ||
			(st.lb == ws.bestMak && st.sumEnds < ws.bestSum) {
			ws.best = append(ws.best[:0], ws.cur...)
			ws.found, ws.bestMak, ws.bestSum = true, st.lb, st.sumEnds
		}
		return nil
	}
	if ws.nodeBudget <= 0 {
		return nil
	}
	depth := len(ws.window) - remaining
	ready := st.readyTasks(ws.readyBuf[depth])
	ws.readyBuf[depth] = ready
	for _, t := range ready {
		opts := st.options(ws.optBuf[depth][:0], t)
		ws.optBuf[depth] = opts
		if len(opts) == 0 {
			return fmt.Errorf("isk: task %d has no feasible mapping (no processors and no device capacity)", t)
		}
		for _, o := range opts {
			ws.nodeBudget--
			*ws.nodes++
			if err := ws.bud.Charge(1); err != nil {
				return fmt.Errorf("isk: window search aborted: %w", err)
			}
			ap, err := st.apply(o, false)
			if err != nil {
				return err
			}
			prune := ws.found && (st.lb > ws.bestMak ||
				(st.lb == ws.bestMak && st.sumEnds >= ws.bestSum))
			if !prune {
				ws.cur = append(ws.cur, o)
				if err := st.dfs(remaining - 1); err != nil {
					st.undo(ap)
					return err
				}
				ws.cur = ws.cur[:len(ws.cur)-1]
			}
			st.undo(ap)
			if ws.nodeBudget <= 0 {
				break
			}
		}
	}
	return nil
}
