// The case grid behind a declarative Spec, split into three parts:
// enumeration (which cells exist, in which order, resolving to which job),
// execution (RunCases, the one executor every run path shares) and
// assembly (turning one result per cell back into the Report). RunSpec is
// exactly enumerate -> RunCases -> assemble, and so are the job service's
// local and coordinator paths — they differ only in the hooks they pass
// RunCases (WAL resume and logging, remote dispatch) — so every path
// produces the same per-cell trainer.Results in cell order and gathers a
// Report byte-identical to a single-node run by construction.
package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"datastall/internal/memo"
	"datastall/internal/obs"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

// SpecCase is one resolved cell of a spec's row x sweep grid: its position
// in execution (row-major) order, the axis labels RunSpec would report for
// it, and the fully overlaid JobSpec (base + row overlay + sweep overlay).
// Job.Build with the same Options RunSpec received resolves it into the
// exact trainer.Config the cell runs with, so a remote worker given (Job,
// Options) reproduces the cell bit for bit.
type SpecCase struct {
	// Index is the cell's position in execution order, 0-based; Total is
	// the grid size.
	Index int
	Total int
	// Row and Case are the axis labels ("" Case when the spec has no sweep
	// axis) — the same values CaseProgress carries.
	Row  string
	Case string
	// Job is the fully overlaid job description for this cell.
	Job JobSpec
}

// EnumerateCases expands a spec into its case grid in execution order —
// the scatter half of RunSpec. The cells are independent by construction
// (each resolves to its own trainer.Config), so they may run anywhere in
// any order; AssembleReport puts the results back together.
func EnumerateCases(sp *Spec, o Options) ([]SpecCase, error) {
	g, err := newSpecGrid(sp, o)
	if err != nil {
		return nil, err
	}
	return g.cases(), nil
}

// CaseHooks are the per-caller seams of RunCases. Every field is optional:
// the zero value simulates each cell locally, one after another.
type CaseHooks struct {
	// Resumed returns a result recovered for the cell, served as is
	// instead of running it (nil: run the cell).
	Resumed func(c SpecCase) *trainer.Result
	// Started is called, in cell order, as each cell that was not resumed
	// begins.
	Started func(c SpecCase)
	// Label adds caller attributes to every cell's case span, after its
	// row and case axis labels.
	Label func(c SpecCase, sp obs.Span)
	// Run executes one unique cell under its case span. nil simulates it
	// in this process under a simulate span with per-epoch sub-spans.
	Run func(ctx context.Context, c SpecCase, sp obs.Span) (*trainer.Result, error)
	// Done receives the result of every cell that was not resumed; fresh
	// is false for a cell copied from an earlier cell with the same
	// CaseKey.
	Done func(c SpecCase, res *trainer.Result, fresh bool)
	// Observers attach to every local simulation.
	Observers []trainer.Observer
	// Inflight bounds the cells running at once. At <= 1 every cell runs
	// on the calling goroutine.
	Inflight int
}

// RunCases is the one case executor: it runs a grid's cells (in the order
// EnumerateCases returns them) and returns one result per cell, results[i]
// belonging to cells[i].Index == i. Per cell, in index order: a resumed
// result is served as is; otherwise the cell is keyed with CaseKey, a cell
// whose key an earlier cell already has copies that cell's result
// (case_dedup), and a unique cell runs through o.Memo when one is set, or
// directly when not. Each cell gets a case span under o.Trace. The first
// error cancels the remaining cells and is returned.
func RunCases(ctx context.Context, cells []SpecCase, o Options, h CaseHooks) ([]*trainer.Result, error) {
	o = o.withDefaults(o.Scale)
	salt := ""
	if o.Memo != nil {
		salt = o.Memo.Salt()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		sem      chan struct{}
		copies   []func()
	)
	if h.Inflight > 1 {
		sem = make(chan struct{}, h.Inflight)
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	results := make([]*trainer.Result, len(cells))
	settle := func(c SpecCase, sp obs.Span, key memo.Key, kerr error) {
		defer sp.End()
		res, err := h.run(ctx, c, o, sp, key, kerr)
		if err != nil {
			sp.SetAttr("error", err.Error())
			fail(err)
			return
		}
		results[c.Index] = res
		if h.Done != nil {
			h.Done(c, res, true)
		}
	}
	copyCell := func(c SpecCase, from int, sp obs.Span) {
		defer sp.End()
		if firstErr != nil {
			return
		}
		results[c.Index] = results[from]
		sp.Event("case_dedup")
		if h.Done != nil {
			h.Done(c, results[from], false)
		}
	}
	seen := map[string]int{}
	for _, c := range cells {
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		sp := o.Trace.StartThread("case")
		if c.Row != "" {
			sp.SetAttr("row", c.Row)
		}
		if c.Case != "" {
			sp.SetAttr("case", c.Case)
		}
		if h.Label != nil {
			h.Label(c, sp)
		}
		if h.Resumed != nil {
			if res := h.Resumed(c); res != nil {
				results[c.Index] = res
				sp.Event("case_resumed")
				sp.End()
				continue
			}
		}
		if h.Started != nil {
			h.Started(c)
		}
		key, kerr := CaseKey(c.Job, o, salt)
		switch from, dup := seen[key.Hash]; {
		case kerr == nil && dup && sem == nil:
			// Serially, the earlier cell is already done.
			copyCell(c, from, sp)
		case kerr == nil && dup:
			// With cells in flight, copy once every cell has finished.
			copies = append(copies, func() { copyCell(c, from, sp) })
		case sem == nil:
			seen[key.Hash] = c.Index
			settle(c, sp, key, kerr)
		default:
			seen[key.Hash] = c.Index
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				settle(c, sp, key, kerr)
			}()
		}
	}
	wg.Wait()
	for _, f := range copies {
		f()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// run executes one unique cell: through the memo cache when one is set and
// the cell keyed cleanly, else directly. A key derivation error is a
// resolution error, which the run surfaces with the cell's own context.
func (h CaseHooks) run(ctx context.Context, c SpecCase, o Options, sp obs.Span, key memo.Key, kerr error) (*trainer.Result, error) {
	run := func() (*trainer.Result, error) {
		if h.Run != nil {
			return h.Run(ctx, c, sp)
		}
		cfg, err := c.Job.build(o)
		if err != nil {
			return nil, err
		}
		sim := sp.Start("simulate")
		res, err := trainer.RunContext(ctx, cfg, h.Observers...)
		if err == nil {
			traceEpochs(sim, cfg, res)
		}
		sim.End()
		return res, err
	}
	if o.Memo == nil || kerr != nil {
		return run()
	}
	res, hit, err := o.Memo.Do(ctx, key, run)
	sp.Event("memo_lookup").SetAttr("hit", strconv.FormatBool(hit))
	return res, err
}

// AssembleReport builds the spec's Report from one trainer.Result per grid
// cell, results[i] belonging to the cell EnumerateCases returns at Index i —
// the gather half of RunSpec. Given results produced by the same
// deterministic simulations RunSpec would run, the returned Report is
// byte-identical to a single-node RunSpec, regardless of where or in what
// order the cells actually executed.
func AssembleReport(sp *Spec, o Options, results []*trainer.Result) (*Report, error) {
	g, err := newSpecGrid(sp, o)
	if err != nil {
		return nil, err
	}
	if len(results) != g.total() {
		return nil, fmt.Errorf("spec %s: %d results for %d grid cells", sp.Name, len(results), g.total())
	}
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("spec %s: missing result for grid cell %d", sp.Name, i)
		}
	}
	return g.assemble(results)
}

// gridRow is one resolved point of the row axis: its label, its row-header
// cells, and the base job with the row overlay applied.
type gridRow struct {
	label string
	cells []interface{}
	job   JobSpec
}

// specGrid is a spec with both axes resolved and row labels settled — the
// shared state of enumeration and assembly.
type specGrid struct {
	sp    *Spec
	o     Options
	rows  []gridRow
	sweep []axisCase
}

// newSpecGrid validates the spec and resolves its axes. Row labels that
// derive from the resolved job (cells-less cases) are settled here, with
// the same uniqueness check RunSpec applied mid-run.
func newSpecGrid(sp *Spec, o Options) (*specGrid, error) {
	if err := sp.check(); err != nil {
		return nil, err
	}
	o = o.withDefaults(o.Scale)
	rows, err := sp.Rows.resolve()
	if err != nil {
		return nil, err
	}
	sweep := []axisCase{{}}
	if sp.Sweep != nil {
		if sweep, err = sp.Sweep.resolve(); err != nil {
			return nil, err
		}
	}
	g := &specGrid{sp: sp, o: o, sweep: sweep}
	seenRows := map[string]bool{}
	for _, row := range rows {
		js := sp.Base.overlay(row.set)
		cells := row.cells
		if cells == nil {
			cells = deriveCells(js, sp.RowHeader)
		}
		label := row.label
		if label == "" && len(cells) > 0 {
			label = cellString(cells[0])
		}
		if seenRows[label] {
			return nil, fmt.Errorf("spec %s: duplicate row label %q (labels key the {row} substitution and must be unique)",
				sp.Name, label)
		}
		seenRows[label] = true
		g.rows = append(g.rows, gridRow{label: label, cells: cells, job: js})
	}
	return g, nil
}

func (g *specGrid) total() int { return len(g.rows) * len(g.sweep) }

// cases flattens the grid in execution (row-major) order.
func (g *specGrid) cases() []SpecCase {
	total := g.total()
	out := make([]SpecCase, 0, total)
	for _, row := range g.rows {
		for _, sc := range g.sweep {
			out = append(out, SpecCase{
				Index: len(out), Total: total,
				Row: row.label, Case: sc.label,
				Job: row.job.overlay(sc.set),
			})
		}
	}
	return out
}

// assemble turns one result per cell (in execution order) into the Report.
// Each cell's config is rebuilt locally — resolution is deterministic and
// costs nothing next to a simulation — so the table's derived columns and
// the per-case capture see exactly what the cell ran with.
func (g *specGrid) assemble(results []*trainer.Result) (*Report, error) {
	sp := g.sp
	r := &Report{
		ID: sp.Name,
		Table: &stats.Table{
			Title:   sp.Title,
			Columns: append(append([]string{}, sp.RowHeader...), columnLabels(sp.Columns)...),
		},
		Notes: sp.Notes,
	}
	i := 0
	for _, row := range g.rows {
		rowResults := make(map[string]*trainer.Result, len(g.sweep))
		servers := make(map[string]int, len(g.sweep))
		cells := append(make([]interface{}, 0, len(row.cells)+len(sp.Columns)), row.cells...)
		for _, sc := range g.sweep {
			cfg, err := row.job.overlay(sc.set).build(g.o)
			if err != nil {
				return nil, err
			}
			res := results[i]
			i++
			rowResults[sc.label] = res
			servers[sc.label] = cfg.NumServers
			r.Cases = append(r.Cases, newCaseResult(sp.Name, row.label, sc.label, cfg, res))
		}
		for _, col := range sp.Columns {
			v := metricValue(col.Metric, rowResults[col.Of], servers[col.Of])
			if col.Over != "" {
				v /= metricValue(col.Metric, rowResults[col.Over], servers[col.Over])
			}
			cells = append(cells, v)
			if col.Key != "" {
				r.set(strings.ReplaceAll(col.Key, "{row}", row.label), v)
			}
		}
		r.Table.AddRow(cells...)
	}
	return r, nil
}
