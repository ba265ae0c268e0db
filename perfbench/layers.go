package main

import (
	"fmt"
	"time"
)

// Span names. Each wraps one call into the named layer's public API.
const (
	spanCell       = "cell" // one re-executed cell in a check
	spanGen        = "gen.System"
	spanFPSOffline = "sched.fps.offline"
	spanFPSOnline  = "sched.fps.online"
	spanGPIOCP     = "sched.gpiocp"
	spanStatic     = "sched.static"
	spanGA         = "sched.ga.Solve"
	spanScore      = "quality.score"
	spanValidate   = "sched.validate"
	spanRunBatch   = "experiment.RunBatchCached"
	spanRunShard   = "experiment.RunShard"
	spanAggregate  = "experiment.aggregate"
	spanRender     = "render"
	spanEncode     = "shard.encode"
	spanDecode     = "shard.decode"
	spanMerge      = "shard.merge"
	spanCachePut   = "cellcache.Put"
	spanCacheGet   = "cellcache.Get"
	spanDispatch   = "dispatch.Run"
	spanWarmLeg    = "dispatch.Run.warm"
	spanWorker     = "dispatch.worker"
	spanCoordLeg   = "coord.leg"
	spanSubmit     = "coord.Submit"
	spanLease      = "coord.Lease"
	spanPush       = "coord.Push"
	spanResult     = "coord.Result"
	spanCoordWork  = "coord.worker"
)

type layerRow struct {
	Name  string
	Value float64
	Unit  string
	Base  string
}

// layerMetrics derives the per-layer metrics from the spans and
// counters. A layer the workload does not exercise reports 0 with base
// "not exercised".
func layerMetrics(l map[string]*Layer, c *Counters) []layerRow {
	get := func(name string) *Layer {
		if x := l[name]; x != nil {
			return x
		}
		return &Layer{}
	}
	var rows []layerRow
	add := func(name string, v float64, unit, base string) {
		rows = append(rows, layerRow{name, v, unit, base})
	}
	// per returns total/n in the unit's scale and a base text.
	per := func(total time.Duration, n int, scale float64, what string) (float64, string) {
		if n == 0 {
			return 0, "not exercised"
		}
		return total.Seconds() * scale / float64(n), fmt.Sprintf("%.4f s self over %d %s", total.Seconds(), n, what)
	}
	// p50 summarises span durations by the percentile rule.
	p50 := func(x *Layer, scale float64) (float64, string) {
		if x.Count == 0 {
			return 0, "not exercised"
		}
		s := Summarise(x.Durs)
		return s.P50 * scale, fmt.Sprintf("p50 of n=%d; %s", s.N, tailText(Summary{TailP: s.TailP, Tail: s.Tail * scale}, "%.4g"))
	}

	gen := get(spanGen)
	v, base := per(gen.Self, gen.Count, 1e6, "systems")
	add("gen.us_per_system", v, "us", base)

	ga := get(spanGA)
	add("sched.ga.solves", float64(c.GASolves), "count", "ga.Solve calls in checks")
	add("sched.ga.evals", float64(c.GAEvals), "count", "population x generations summed over solves")
	v, base = per(ga.Self, c.GAEvals, 1e6, "evaluations")
	add("sched.ga.us_per_eval", v, "us", base)
	if c.GASolves > 0 {
		add("sched.ga.front_size", float64(c.GAFront)/float64(c.GASolves), "count",
			fmt.Sprintf("%d front solutions over %d solves", c.GAFront, c.GASolves))
	} else {
		add("sched.ga.front_size", 0, "count", "not exercised")
	}
	cell := get(spanCell)
	if cell.Total > 0 {
		add("sched.ga.share", ga.Self.Seconds()/cell.Total.Seconds(), "ratio",
			fmt.Sprintf("GA self %.4f s / traced cell time %.4f s", ga.Self.Seconds(), cell.Total.Seconds()))
	} else {
		add("sched.ga.share", 0, "ratio", "not exercised")
	}

	baseSelf := get(spanFPSOffline).Self + get(spanFPSOnline).Self + get(spanGPIOCP).Self
	v, base = per(baseSelf, c.BaselineSystems, 1e6, "systems")
	add("sched.baselines.us_per_system", v, "us", base)

	st := get(spanStatic)
	v, base = per(st.Self, c.StaticJobs, 1e6, "jobs")
	add("sched.static.us_per_job", v, "us", base)
	if c.StaticSchedules > 0 {
		add("sched.static.feasible_ratio", float64(c.StaticFeasible)/float64(c.StaticSchedules), "ratio",
			fmt.Sprintf("%d feasible of %d systems", c.StaticFeasible, c.StaticSchedules))
	} else {
		add("sched.static.feasible_ratio", 0, "ratio", "not exercised")
	}

	sc := get(spanScore)
	v, base = per(sc.Self, c.ScoredJobs, 1e6, "jobs")
	add("quality.us_per_job", v, "us", base)
	val := get(spanValidate)
	v, base = per(val.Self, val.Count, 1e6, "schedules")
	add("sched.validate.us_per_schedule", v, "us", base)

	v, base = p50(get(spanAggregate), 1e3)
	add("experiment.aggregate_ms", v, "ms", base)
	v, base = p50(get(spanRender), 1e3)
	add("render.ms", v, "ms", base)

	enc := get(spanEncode)
	v, base = per(enc.Self, c.EncodedCells, 1e6, "cells")
	add("shard.encode_us_per_cell", v, "us", base)
	dec := get(spanDecode)
	v, base = per(dec.Self, c.DecodedCells, 1e6, "cells")
	add("shard.decode_us_per_cell", v, "us", base)
	if c.EncodedCells > 0 {
		add("shard.bytes_per_cell", float64(c.EncodedBytes)/float64(c.EncodedCells), "B",
			fmt.Sprintf("%d bytes over %d cells (binary codec)", c.EncodedBytes, c.EncodedCells))
	} else {
		add("shard.bytes_per_cell", 0, "B", "not exercised")
	}
	v, base = p50(get(spanMerge), 1e3)
	add("shard.merge_ms", v, "ms", base)

	v, base = p50(get(spanCachePut), 1e6)
	add("cellcache.put_us", v, "us", base)
	v, base = p50(get(spanCacheGet), 1e6)
	add("cellcache.get_us", v, "us", base)
	if n := c.CacheHits + c.CacheMisses; n > 0 {
		add("cellcache.hit_ratio", float64(c.CacheHits)/float64(n), "ratio",
			fmt.Sprintf("%d hits of %d warm-leg lookups", c.CacheHits, n))
	} else {
		add("cellcache.hit_ratio", 0, "ratio", "not exercised")
	}

	legs := func(ls []LegStat, f func(LegStat) float64) (float64, string) {
		if len(ls) == 0 {
			return 0, "not exercised"
		}
		vs := make([]float64, len(ls))
		for i, s := range ls {
			vs[i] = f(s)
		}
		return Median(vs), fmt.Sprintf("median of %d legs", len(ls))
	}
	v, base = legs(c.Dispatch, func(s LegStat) float64 { return s.Leg.Seconds() })
	add("dispatch.leg_s", v, "s", base)
	v, base = legs(c.WarmDispatch, func(s LegStat) float64 { return s.Leg.Seconds() })
	add("dispatch.warm_leg_s", v, "s", base)
	v, base = legs(c.Dispatch, func(s LegStat) float64 { return float64(s.Units) })
	add("dispatch.units", v, "count", base)
	v, base = legs(c.Dispatch, func(s LegStat) float64 { return float64(s.Attempts) })
	add("dispatch.attempts", v, "count", base)
	v, base = legs(c.Dispatch, LegStat.BusyRatio)
	add("dispatch.busy_ratio", v, "ratio", base+" (worker busy / workers x leg)")
	v, base = legs(c.Dispatch, func(s LegStat) float64 { return s.Overhead().Seconds() })
	add("dispatch.overhead_s", v, "s", base+" (leg - busiest worker)")

	v, base = legs(c.Coord, func(s LegStat) float64 { return s.Leg.Seconds() })
	add("coord.leg_s", v, "s", base)
	v, base = p50(get(spanLease), 1e3)
	add("coord.lease_ms", v, "ms", base)
	v, base = p50(get(spanPush), 1e3)
	add("coord.push_ms", v, "ms", base)
	v, base = legs(c.Coord, LegStat.BusyRatio)
	add("coord.busy_ratio", v, "ratio", base+" (worker busy / workers x leg)")
	return rows
}
