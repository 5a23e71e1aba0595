package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"stdcelltune"
	"stdcelltune/internal/query"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/service"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/service/journal"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

// probeRepeats is how often the cheap probes repeat; they report the
// median.
const probeRepeats = 3

// incrementalProbes is how many single-instance edits the incremental
// STA probe times.
const incrementalProbes = 200

// timeMs times f once.
func timeMs(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return ms(time.Since(t0)), err
}

// medianMs times f probeRepeats times and returns the median.
func medianMs(f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < probeRepeats; i++ {
		t, err := timeMs(f)
		if err != nil {
			return 0, err
		}
		xs = append(xs, t)
	}
	return median(xs), nil
}

// runProbes times one call into each layer's public functions on the
// run's seeded headline spec, outside any daemon: the per-layer cost at
// a fixed input, identical across workloads. Every traced run reports
// them.
func runProbes(ctx context.Context, scratch string, c config, r *Report) error {
	spec := c.size.jobSpec(c.seed, seedProbe).Normalized()
	cat := stdcell.NewCatalogue(stdcell.Typical) // every benchmark spec runs at the typical corner
	set := func(name string, v float64, err error) error {
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		unit := "ms"
		if name == "sta.incremental_update_us" {
			unit = "us"
		}
		r.set(name, v, unit)
		return nil
	}

	var libs []*stdcelltune.Library
	t, err := timeMs(func() (err error) {
		libs, err = variation.InstancesCtx(ctx, cat, variation.Config{N: spec.Instances, Seed: spec.Seed, CharNoise: variation.DefaultConfig().CharNoise})
		return err
	})
	if err := set("variation.instances_ms", t, err); err != nil {
		return err
	}
	var stat *statlib.Library
	t, err = timeMs(func() (err error) { stat, err = statlib.Build("stat_"+cat.Corner.Name(), libs); return err })
	if err := set("statlib.build_ms", t, err); err != nil {
		return err
	}
	libs = nil
	var win *stdcelltune.Windows
	t, err = medianMs(func() (err error) {
		win, _, err = stdcelltune.TuneCtx(ctx, stat, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: spec.Bound})
		return err
	})
	if err := set("core.tune_ms", t, err); err != nil {
		return err
	}
	mcu := rtlgen.DefaultConfig()
	if spec.Design == "mcu-small" {
		mcu = rtlgen.SmallConfig()
	}
	design, err := stdcelltune.NewMCUWith(mcu)
	if err != nil {
		return err
	}
	var res *stdcelltune.SynthesisResult
	t, err = timeMs(func() (err error) {
		res, err = stdcelltune.SynthesizeCtx(ctx, design, cat, stdcelltune.SynthesizeOptions{Clock: spec.ClockNS, Windows: win, Name: spec.Design})
		return err
	})
	if err := set("synth.synthesize_ms", t, err); err != nil {
		return err
	}
	staCfg := sta.DefaultConfig(spec.ClockNS)
	var timing *sta.Result
	t, err = medianMs(func() (err error) { timing, err = sta.Analyze(res.Netlist, staCfg); return err })
	if err := set("sta.full_pass_ms", t, err); err != nil {
		return err
	}
	t, err = medianMs(func() error { _, err := stattime.Analyze(timing, stat, spec.Rho); return err })
	if err := set("stattime.analyze_ms", t, err); err != nil {
		return err
	}
	t, err = incrementalUpdateUs(res, staCfg)
	if err := set("sta.incremental_update_us", t, err); err != nil {
		return err
	}
	res, stat, timing = nil, nil, nil

	// The persistence and query layers work on the artifact set of the
	// same spec, as a daemon would have sealed it.
	blobs, err := service.Run(ctx, spec)
	if err != nil {
		return fmt.Errorf("probe artifact set: %w", err)
	}
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cache.New(dir + "/cache")
	if err != nil {
		return err
	}
	var entry *cache.Entry
	t, err = timeMs(func() (err error) { entry, err = store.Put(spec.Digest(), blobs); return err })
	if err := set("cache.put_ms", t, err); err != nil {
		return err
	}
	jnl, _, err := journal.Open(dir + "/state")
	if err != nil {
		return err
	}
	defer jnl.Close()
	seq := 0
	t, err = medianMs(func() error {
		seq++
		return jnl.Append(journal.Record{Job: fmt.Sprintf("job-%d", seq), State: journal.StateDone,
			Digest: spec.Digest(), Time: time.Now().UTC().Format(time.RFC3339Nano)}, true)
	})
	if err := set("journal.append_sync_ms", t, err); err != nil {
		return err
	}
	var qs *query.Store
	t, err = timeMs(func() (err error) { qs, err = service.BuildQueryStore(entry); return err })
	if err := set("query.store_build_ms", t, err); err != nil {
		return err
	}
	var exec []float64
	for _, tpl := range analystTemplates {
		q, err := query.Parse([]byte(tpl.render((tpl.lo + tpl.hi) / 2)))
		if err != nil {
			return fmt.Errorf("probe query: %w", err)
		}
		t, err := medianMs(func() error { _, err := qs.Execute(q); return err })
		if err != nil {
			return fmt.Errorf("probe query.execute: %w", err)
		}
		exec = append(exec, t)
	}
	r.set("query.execute_ms", median(exec), "ms")
	from, to, err := mostUsedUpsize(qs, cat)
	if err != nil {
		return err
	}
	t, err = medianMs(func() error { _, err := qs.Substitute(from, to); return err })
	return set("query.substitute_ms", t, err)
}

// mostUsedUpsize picks the design's most used cell and the next drive
// up in its family: the substitution probe's fixed pair.
func mostUsedUpsize(qs *query.Store, cat *stdcell.Catalogue) (from, to string, err error) {
	q, err := query.Parse([]byte(`{"from":"instances","group_by":["cell"],"aggregate":[{"op":"count"}],"order_by":[{"col":"count","desc":true},{"col":"cell"}]}`))
	if err != nil {
		return "", "", err
	}
	res, err := qs.Execute(q)
	if err != nil {
		return "", "", err
	}
	for _, row := range res.Rows {
		cell, _ := row[0].(string)
		fam := cat.SizesOf(cell)
		for i, s := range fam {
			if s.Name == cell && i+1 < len(fam) {
				return cell, fam[i+1].Name, nil
			}
		}
	}
	return "", "", fmt.Errorf("probe: no upsizable cell in the design")
}

// incrementalUpdateUs times single-instance edits on an incremental STA
// engine — the inner loop of a widen what-if and of synthesis sizing:
// downsize one instance, reanalyze, restore it.
func incrementalUpdateUs(res *stdcelltune.SynthesisResult, cfg sta.Config) (float64, error) {
	nl := res.Netlist.Clone()
	eng := sta.NewEngine(nl, cfg)
	defer eng.Close()
	if _, err := eng.Analyze(); err != nil {
		return 0, err
	}
	order, err := nl.TopoOrder()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, inc0 := eng.Counts()
	edits := 0
	for _, inst := range order {
		if edits == incrementalProbes {
			break
		}
		fam := nl.Cat.Families[inst.Spec.Family]
		down := -1
		for i, s := range fam {
			if s.Drive == inst.Spec.Drive && i > 0 {
				down = i - 1
			}
		}
		if down < 0 {
			continue
		}
		prev := inst.Spec
		if err := nl.Resize(inst, fam[down]); err != nil {
			continue
		}
		if _, err := eng.Analyze(); err != nil {
			return 0, err
		}
		if err := nl.Resize(inst, prev); err != nil {
			return 0, err
		}
		edits++
	}
	if _, err := eng.Analyze(); err != nil {
		return 0, err
	}
	_, inc1 := eng.Counts()
	if inc1 == inc0 {
		return 0, fmt.Errorf("no incremental updates in %d edits", edits)
	}
	return float64(time.Since(t0).Microseconds()) / float64(inc1-inc0), nil
}
