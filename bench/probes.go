package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"iorchestra/internal/blkio"
	"iorchestra/internal/bus"
	"iorchestra/internal/device"
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
)

// Layer probes: the traced pass replays a workload's own op shape against
// one layer's public API in isolation and reports wall time per call.
// Each probe is sized to run for a few tens of milliseconds.

// probeShape is the part of a workload's shape the control-plane probes
// replay: how many keys one store holds, how big a value is, and over how
// many domains the keys spread.
type probeShape struct {
	keys       int
	valueBytes int
	domains    int
}

// timeOp reports the median, over rounds, of the mean wall ns of n calls.
func timeOp(tr *tracer, parent int, name string, rounds, n int, op func(i int)) float64 {
	id := tr.begin(parent, name, 0)
	defer tr.end(id, nil)
	per := make([]float64, 0, rounds)
	i := 0
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			op(i)
			i++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	sort.Float64s(per)
	return percentileOf(per, 50)
}

// shapedStore builds a store holding the shape's keys, spread over its
// domains, and returns the paths.
func shapedStore(sh probeShape) (*sim.Kernel, *store.Store, []store.DomID, []string) {
	k := sim.NewKernel()
	st := store.New(k, 0)
	doms := make([]store.DomID, 0, sh.domains)
	for d := 1; d <= sh.domains; d++ {
		st.AddDomain(store.DomID(d))
		doms = append(doms, store.DomID(d))
	}
	owners := make([]store.DomID, 0, sh.keys)
	paths := make([]string, 0, sh.keys)
	for i := 0; i < sh.keys; i++ {
		dom := doms[i%len(doms)]
		owners = append(owners, dom)
		paths = append(paths, store.DomainPath(dom)+"/k"+strconv.Itoa(i/len(doms)))
	}
	return k, st, owners, paths
}

// sinkWatcher is the probe's watch target: a named method, as the
// watchsafety convention asks of store callbacks.
type sinkWatcher struct{ n uint64 }

func (s *sinkWatcher) onEvent(path, value string) { s.n++ }

// probeStore fills store.ns_per_write_w{0,1,16} (a write plus the watch
// deliveries it causes, at that many watchers on the written subtree)
// and store.ns_per_cursor_write.
func probeStore(pl metricSet, sh probeShape, tr *tracer, parent int) {
	value := strings.Repeat("v", sh.valueBytes)
	for _, watchers := range []int{0, 1, 16} {
		k, st, owners, paths := shapedStore(sh)
		sink := &sinkWatcher{}
		for w := 0; w < watchers; w++ {
			// Dom0 sees every domain, like the manager's privileged watch.
			if _, err := st.Watch(store.Dom0, store.Root, sink.onEvent); err != nil {
				panic(fmt.Sprintf("bench: probe watch: %v", err))
			}
		}
		name := fmt.Sprintf("store.ns_per_write_w%d", watchers)
		pl[name] = timeOp(tr, parent, "probe."+name, 9, 4096, func(i int) {
			j := i % len(paths)
			if err := st.Write(owners[j], paths[j], value); err != nil {
				panic(fmt.Sprintf("bench: probe write: %v", err))
			}
			k.Run()
		})
	}
	_, st, owners, paths := shapedStore(sh)
	cursors := make([]*store.Cursor, len(paths))
	for i, p := range paths {
		cursors[i] = st.CursorFor(p)
	}
	pl["store.ns_per_cursor_write"] = timeOp(tr, parent, "probe.store.ns_per_cursor_write", 9, 4096, func(i int) {
		j := i % len(paths)
		if err := st.WriteCursor(owners[j], cursors[j], value); err != nil {
			panic(fmt.Sprintf("bench: probe cursor write: %v", err))
		}
	})
}

// probeBus times one guest-side typed write through bus.Domain, with the
// manager-style root watch attached and the notification delivered.
func probeBus(sh probeShape, tr *tracer, parent int) float64 {
	k := sim.NewKernel()
	st := store.New(k, 30*sim.Microsecond)
	b := bus.New(k, st, 25*sim.Microsecond)
	doms := make([]*bus.Domain, sh.domains)
	for i := range doms {
		doms[i] = b.Register(store.DomID(i + 1))
	}
	sink := &sinkWatcher{}
	if _, err := st.Watch(store.Dom0, store.Root, sink.onEvent); err != nil {
		panic(fmt.Sprintf("bench: probe watch: %v", err))
	}
	return timeOp(tr, parent, "probe.bus.ns_per_domain_write", 9, 4096, func(i int) {
		if err := doms[i%len(doms)].WriteInt("iorchestra/heartbeat", int64(i)); err != nil {
			panic(fmt.Sprintf("bench: probe bus write: %v", err))
		}
		k.Run()
	})
}

// probeBlkio times Queue.Submit to completion over a zero-latency lower
// layer: the block layer's own bookkeeping per request.
func probeBlkio(reqBytes int64, tr *tracer, parent int) float64 {
	k := sim.NewKernel()
	lower := blkio.LowerFunc(func(r *device.Request) { r.Done() })
	q := blkio.NewQueue(k, blkio.Config{Name: "probe"}, stats.NewStream(1, "bench/probe/blkio"), lower)
	done := 0
	return timeOp(tr, parent, "probe.blkio.ns_per_request", 9, 4096, func(i int) {
		// Alternate streams so back-merging does not absorb the request.
		q.Submit(&device.Request{Op: device.Read, Size: reqBytes, Stream: i, Done: func() { done++ }})
		k.Run()
	})
}

// probeDevice times one striped 1 MiB request through the paper array,
// submit to callback.
func probeDevice(tr *tracer, parent int) float64 {
	k := sim.NewKernel()
	arr := device.PaperArray(k, stats.NewStream(1, "bench/probe/device"))
	done := 0
	return timeOp(tr, parent, "probe.device.ns_per_request", 9, 1024, func(i int) {
		arr.Submit(&device.Request{Op: device.Write, Size: 1 << 20, Sequential: true, Owner: 1, Done: func() { done++ }})
		k.Run()
	})
}

// probeMonitorSnapshot times the three Monitor reads a management tick
// makes, on the finished bed (so at the workload's guest count and with
// its dirty index populated).
func probeMonitorSnapshot(b *simBed, tr *tracer, parent int) float64 {
	mon := b.hosts[0].Monitor()
	now := b.kernels[0].Now()
	var sinkBW float64
	var sinkNr int64
	return timeOp(tr, parent, "probe.hypervisor.monitor_snapshot_ns", 9, 2048, func(int) {
		dev := mon.DeviceSnapshot(now)
		cs := mon.CoreSnapshot(now)
		_, _, nr, _ := mon.BestDirty(now, nil)
		sinkBW += dev.BandwidthBps + float64(len(cs.Latencies))
		sinkNr += nr
	})
}

// probeParallelSpeedup runs two identical scale beds over a shortened
// span — one with the kernels stepped one after another through the same
// epoch schedule, one under cluster.RunEpochs — and reports sequential
// wall ÷ parallel wall. Both schedules cycle through the kernels epoch by
// epoch, so cache locality is the same and the ratio isolates what the
// goroutine-per-kernel machinery buys.
func probeParallelSpeedup(ctx runCtx, s simSpec, build simBuilder, tr *tracer, parent int) (float64, error) {
	id := tr.begin(parent, "probe.cluster.parallel_speedup", 0)
	defer tr.end(id, nil)
	warm := sim.Time(s.WarmupSimS) * sim.Second
	end := warm + sim.Time(ctx.seconds*s.SimSecPerSecond)*sim.Second/4

	seq := build(s, ctx.seed, measured)
	seq.runUntil(warm)
	runtime.GC()
	t0 := time.Now()
	for now := warm; now < end; {
		now += seq.epoch
		if now > end {
			now = end
		}
		for _, k := range seq.kernels {
			k.RunUntil(now)
		}
	}
	seqWall := time.Since(t0).Seconds()
	seqEvents := seq.executed()
	seq = nil

	par := build(s, ctx.seed, measured)
	par.runUntil(warm)
	runtime.GC()
	t0 = time.Now()
	par.runUntil(end)
	parWall := time.Since(t0).Seconds()
	if par.executed() != seqEvents {
		// TestRunEpochsParity's promise, checked at scale.
		return 0, fmt.Errorf("parallel kernels executed %d events, the same kernels one after another %d", par.executed(), seqEvents)
	}
	return seqWall / parWall, nil
}

// iocoreUtilMax estimates the busiest polling core's utilisation from
// its public counters: requests × per-request cost plus bytes ÷ rate,
// over the core's lifetime (0 when the host runs no dedicated cores).
func iocoreUtilMax(b *simBed, s simSpec) float64 {
	cost, bps := 3*sim.Microsecond, 25e9 // hypervisor.Config defaults
	if s.Mix != nil {
		cost, bps = sim.Duration(s.Mix.IOCoreCostUS)*sim.Microsecond, s.Mix.IOCoreBps
	}
	var max float64
	for i, h := range b.hosts {
		life := b.kernels[i].Now().Seconds()
		for _, c := range h.IOCores() {
			busy := float64(c.Processed())*cost.Seconds() + c.Bytes()/bps
			if u := busy / life; u > max {
				max = u
			}
		}
	}
	return max
}

// mergedQueueLatency merges every guest queue's lifetime histograms:
// request latency (submit to completion) and queue wait (submit to
// dispatch).
func mergedQueueLatency(b *simBed) (lat, wait *metrics.Histogram) {
	lat, wait = metrics.NewHistogram(), metrics.NewHistogram()
	for _, d := range b.disks {
		lat.Merge(d.Queue.Latency())
		wait.Merge(d.Queue.QueueLatency())
	}
	return lat, wait
}

// lagWatcher timestamps watch deliveries on the second connection.
type lagWatcher struct {
	mu   sync.Mutex
	seen map[string]time.Time
	got  chan struct{}
}

func (w *lagWatcher) onEvent(path, value string) {
	now := time.Now()
	w.mu.Lock()
	w.seen[value] = now
	w.mu.Unlock()
	w.got <- struct{}{}
}

// wireProbes fills the netstore cost lines shared by both wire
// workloads — unbatched write RTT, batch RTT when the workload did not
// measure it itself, watch lag between two connections — and the store
// and bus probes at the workload's shape.
func wireProbes(ctx runCtx, pl metricSet, sh probeShape, tr *tracer, parent int) error {
	id := tr.begin(parent, "probe.netstore", 0)
	defer tr.end(id, nil)
	bed, err := newWireBed(ctx.outDir)
	if err != nil {
		return err
	}
	defer bed.close()
	writer, err := bed.dial(loopGuestDom)
	if err != nil {
		return fmt.Errorf("probe dial: %w", err)
	}
	defer writer.Close()
	watcher, err := bed.dial(store.Dom0)
	if err != nil {
		return fmt.Errorf("probe dial: %w", err)
	}
	defer watcher.Close()
	key := store.DomainPath(loopGuestDom) + "/probe"
	value := strings.Repeat("v", sh.valueBytes)

	const n = 2000
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := writer.Write(key, value); err != nil {
			return fmt.Errorf("probe write: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(rtts)
	pl["netstore.write_rtt_p50_us"] = percentileOf(rtts, 50)

	if _, ok := pl["netstore.batch_rtt_p50_us"]; !ok {
		spec := ctx.consts.HotPath
		brtts := make([]float64, 0, 200)
		for i := 0; i < 200; i++ {
			b := writer.NewBatch()
			for j := 0; j < spec.BatchOps; j++ {
				b.Write(key, value)
			}
			t0 := time.Now()
			if _, err := b.Run(); err != nil {
				return fmt.Errorf("probe batch: %w", err)
			}
			brtts = append(brtts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		sort.Float64s(brtts)
		pl["netstore.batch_rtt_p50_us"] = percentileOf(brtts, 50)
	}

	// Watch lag: the writer's Write call starts on one connection, the
	// callback runs on the other. One event in flight, so got never
	// holds more than one signal.
	lw := &lagWatcher{seen: map[string]time.Time{}, got: make(chan struct{}, 1)}
	if _, err := watcher.Watch(key, lw.onEvent); err != nil {
		return fmt.Errorf("probe watch: %w", err)
	}
	lags := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := strconv.Itoa(i)
		t0 := time.Now()
		if err := writer.Write(key, v); err != nil {
			return fmt.Errorf("probe write: %w", err)
		}
		select {
		case <-lw.got:
		case <-time.After(roundTimeout):
			return fmt.Errorf("probe watch: event %d never delivered", i)
		}
		lw.mu.Lock()
		at := lw.seen[v]
		delete(lw.seen, v)
		lw.mu.Unlock()
		lags = append(lags, float64(at.Sub(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(lags)
	pl["netstore.watch_lag_p50_us"] = percentileOf(lags, 50)
	pl["netstore.watch_lag_p99_us"] = percentileOf(lags, 99)

	probeStore(pl, sh, tr, parent)
	pl["bus.ns_per_domain_write"] = 0 // no bus on the wire path
	return nil
}

// probeLocalRound reports the median round of wire_decision_loop's
// script against an in-process store.
func probeLocalRound(spec loopSpec, seed uint64, tr *tracer, parent int) (float64, []string) {
	id := tr.begin(parent, "probe.store.local_round", 0)
	defer tr.end(id, nil)
	rtts, errs := localRounds(spec, seed, 20000)
	return percentileOf(rtts, 50), errs
}
