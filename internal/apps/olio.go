package apps

import (
	"iorchestra/internal/guest"
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// Parameters of the three-tier social-events application (Sec. 5.1:
// Apache+PHP web VM, MySQL database VM, file-server VM, each 2 VCPU /
// 4 GB; ~40 GB dataset for 500 users).
const (
	// olioPHPMean is the mean web-tier render time per request.
	olioPHPMean = 4 * sim.Millisecond
	// olioQueryCPU is database compute per query.
	olioQueryCPU = 300 * sim.Microsecond
	// olioQueriesMin/Max bound queries per request (uniform).
	olioQueriesMin, olioQueriesMax = 1, 3
	// olioBufferMiss is the probability a query misses the buffer pool
	// and reads a page from disk.
	olioBufferMiss = 0.6
	// olioDBPage is the InnoDB page size.
	olioDBPage = 16 << 10
	// olioStaticBytes is the file-server object size per request, fetched
	// by olioStaticFrac of requests.
	olioStaticBytes = 64 << 10
	olioStaticFrac  = 0.8
	// olioWriteFrac of requests add events (DB write + file upload of
	// olioUploadBytes).
	olioWriteFrac   = 0.1
	olioUploadBytes = 128 << 10
)

// Olio is the assembled three-tier application.
type Olio struct {
	k   *sim.Kernel
	rng *stats.Stream

	web, db, fs *guest.Guest
	webD        *guest.VDisk
	dbD         *guest.VDisk
	fsD         *guest.VDisk

	// Worker pools: Apache/PHP processes, MySQL threads, file-server
	// daemons. Requests round-robin across them so one slow request does
	// not serialize the tier.
	webP       []*guest.Process
	dbP        []*guest.Process
	fsP        []*guest.Process
	wi, di, fi int

	// Per-tier latency (Fig. 6: web = end-to-end, db = query, fs = op).
	webLat *metrics.Histogram
	dbLat  *metrics.Histogram
	fsLat  *metrics.Histogram
}

// NewOlio wires the application onto three guests; each guest's first
// disk carries that tier's data.
func NewOlio(k *sim.Kernel, web, db, fs *guest.Guest, rng *stats.Stream) *Olio {
	o := &Olio{
		k: k, rng: rng,
		web: web, db: db, fs: fs,
		webD: web.Disks()[0], dbD: db.Disks()[0], fsD: fs.Disks()[0],
		webLat: metrics.NewHistogram(),
		dbLat:  metrics.NewHistogram(),
		fsLat:  metrics.NewHistogram(),
	}
	const workers = 8
	for i := 0; i < workers; i++ {
		o.webP = append(o.webP, web.NewProcess(1))
		o.dbP = append(o.dbP, db.NewProcess(1))
		o.fsP = append(o.fsP, fs.NewProcess(1))
	}
	return o
}

func (o *Olio) nextWeb() *guest.Process { o.wi++; return o.webP[o.wi%len(o.webP)] }
func (o *Olio) nextDB() *guest.Process  { o.di++; return o.dbP[o.di%len(o.dbP)] }
func (o *Olio) nextFS() *guest.Process  { o.fi++; return o.fsP[o.fi%len(o.fsP)] }

// WebLatency, DBLatency, FSLatency expose per-tier histograms (Fig. 6).
func (o *Olio) WebLatency() *metrics.Histogram { return o.webLat }

// DBLatency exposes per-query latency at the database VM.
func (o *Olio) DBLatency() *metrics.Histogram { return o.dbLat }

// FSLatency exposes per-operation latency at the file-server VM.
func (o *Olio) FSLatency() *metrics.Histogram { return o.fsLat }

// Request serves one page request: PHP render on the web VM, a batch of
// database queries, optional static fetch and optional event write; done
// fires when the page is complete. This is the Operation a ClosedLoop of
// CloudStone clients drives.
func (o *Olio) Request(done func()) {
	start := o.k.Now()
	finish := func() {
		o.webLat.Record(o.k.Now() - start)
		if done != nil {
			done()
		}
	}
	render := sim.DurationOf(o.rng.Exponential(1 / olioPHPMean.Seconds()))
	o.nextWeb().Compute(render, func() {
		nq := olioQueriesMin + o.rng.Intn(olioQueriesMax-olioQueriesMin+1)
		o.queries(nq, func() {
			write := o.rng.Float64() < olioWriteFrac
			if write {
				o.eventWrite(func() { o.static(finish) })
				return
			}
			o.static(finish)
		})
	})
}

// queries runs n database queries sequentially (PHP's synchronous driver).
func (o *Olio) queries(n int, done func()) {
	if n <= 0 {
		done()
		return
	}
	qStart := sim.Time(0)
	o.k.After(NetLatency, func() {
		qStart = o.k.Now()
		p := o.nextDB()
		p.Compute(olioQueryCPU, func() {
			after := func() {
				o.dbLat.Record(o.k.Now() - qStart)
				o.k.After(NetLatency, func() { o.queries(n-1, done) })
			}
			if o.rng.Float64() < olioBufferMiss {
				o.dbD.Read(p, olioDBPage, false, after)
			} else {
				after()
			}
		})
	})
}

// static fetches file-server content for most requests.
func (o *Olio) static(done func()) {
	if o.rng.Float64() >= olioStaticFrac {
		done()
		return
	}
	o.k.After(NetLatency, func() {
		fStart := o.k.Now()
		p := o.nextFS()
		o.fsD.Read(p, olioStaticBytes, false, func() {
			o.fsLat.Record(o.k.Now() - fStart)
			o.k.After(NetLatency, done)
		})
	})
}

// eventWrite performs the add-event path: a DB transaction write plus a
// file upload.
func (o *Olio) eventWrite(done func()) {
	o.k.After(NetLatency, func() {
		wStart := o.k.Now()
		p := o.nextDB()
		p.Compute(olioQueryCPU, func() {
			o.dbD.Write(p, olioDBPage, func() {
				o.dbLat.Record(o.k.Now() - wStart)
				o.k.After(NetLatency, func() {
					fStart := o.k.Now()
					fp := o.nextFS()
					o.fsD.Write(fp, olioUploadBytes, func() {
						o.fsLat.Record(o.k.Now() - fStart)
						done()
					})
				})
			})
		})
	})
}
