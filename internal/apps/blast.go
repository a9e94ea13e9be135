package apps

import (
	"fmt"

	"iorchestra/internal/guest"
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/workload"
)

// BlastJob runs an mpiBLAST-style search: the sequence database is
// partitioned across worker VMs (the mpiBLAST database-segmentation
// model) and every worker scans its partition, looping for fixed-duration
// runs. The NT/NR inputs of the paper are represented by the database
// size; only the streaming access pattern matters to the I/O policies.
type BlastJob struct {
	workers []*workload.BlastScan

	remaining int
	// OnDone fires when every worker finishes (non-looping jobs).
	OnDone func()
}

// NewBlastJob partitions dbBytes evenly across the given guests (first
// disk of each). loop keeps workers scanning for fixed-duration tests.
func NewBlastJob(k *sim.Kernel, guests []*guest.Guest, dbBytes int64, loop bool, rng *stats.Stream) *BlastJob {
	if len(guests) == 0 {
		panic("apps: blast job with no workers")
	}
	part := dbBytes / int64(len(guests))
	job := &BlastJob{remaining: len(guests)}
	for i, g := range guests {
		w := workload.NewBlastScan(k, g, g.Disks()[0], part, rng.Fork(fmt.Sprintf("worker%d", i)))
		w.Loop = loop
		w.OnDone = func() {
			job.remaining--
			if job.remaining == 0 && job.OnDone != nil {
				job.OnDone()
			}
		}
		job.workers = append(job.workers, w)
	}
	return job
}

// Start launches all workers.
func (j *BlastJob) Start() {
	for _, w := range j.workers {
		w.Start()
	}
}

// Workers exposes the per-VM scanners.
func (j *BlastJob) Workers() []*workload.BlastScan { return j.workers }

// ChunkLatency merges every worker's chunk-read latency — the mean I/O
// latency plotted in Fig. 7(a).
func (j *BlastJob) ChunkLatency() *metrics.Histogram {
	out := metrics.NewHistogram()
	for _, w := range j.workers {
		out.Merge(w.Ops().Latency)
	}
	return out
}
