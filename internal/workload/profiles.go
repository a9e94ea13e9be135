package workload

import (
	"iorchestra/internal/blkio"
	"iorchestra/internal/guest"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
)

// The paper's two guest profiles, spelled once for every experiment, test
// and tool that runs them.

// FlushProneDisk is the Fig. 8 flush-prone guest disk: a 1 GiB page cache
// — what the applications leave free, whatever the VM's size — with dirty
// ratio ratio, background writeback from ratio/2 and a writeback window of
// 64 pages. Write bursts outrun the dirty budget, the regime Algorithm 1
// targets.
func FlushProneDisk(ratio float64) guest.DiskConfig {
	return guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
		TotalPages:      (1 << 30) / pagecache.PageSize,
		DirtyRatio:      ratio,
		BackgroundRatio: ratio / 2,
		WritebackWindow: 64,
	}}
}

// FlushProneFS is the Fig. 8 guest's bursty, write-heavy file server:
// 1 MiB files, 6 ms think time, an 0.8/0.1/0.05 write/append/read mix,
// 1.5 s on and 3.5 s off. The quiet phases are where Algorithm 1 finds
// spare bandwidth.
func FlushProneFS(threads int) FSConfig {
	return FSConfig{
		Threads: threads, MeanFileSize: 1 << 20, Think: 6 * sim.Millisecond,
		WriteFrac: 0.8, AppendFrac: 0.1, ReadFrac: 0.05,
		BurstOn: 1500 * sim.Millisecond, BurstOff: 3500 * sim.Millisecond,
	}
}

// CongestProneDisk is the Sec. 2 congestion-prone guest disk: a ring of
// 68 requests, 128 KiB merges and 64 KiB transfers, so a few readahead
// streams cross the 7/8 congestion threshold without the host being
// congested.
func CongestProneDisk() guest.DiskConfig {
	return guest.DiskConfig{
		Name:        "xvda",
		QueueConfig: blkio.Config{Limit: 68, MaxMerge: 128 << 10},
		MaxTransfer: 64 << 10,
	}
}
