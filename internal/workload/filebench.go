package workload

import (
	"iorchestra/internal/guest"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// Personality is a FileBench-style self-driving workload bound to one
// guest disk. Start launches its threads; Stop ends them after in-flight
// operations finish.
type Personality interface {
	Start()
	Stop()
	Ops() *Recorder
}

// fbBase carries the machinery shared by the personalities.
type fbBase struct {
	k       *sim.Kernel
	g       *guest.Guest
	d       *guest.VDisk
	rng     *stats.Stream
	rec     *Recorder
	stopped bool

	// written tracks application-accepted write bytes, the quantity
	// behind Fig. 8's write-throughput improvement.
	written float64
}

func newFbBase(k *sim.Kernel, g *guest.Guest, d *guest.VDisk, rng *stats.Stream) fbBase {
	return fbBase{k: k, g: g, d: d, rng: rng, rec: NewRecorder()}
}

// Ops exposes the operation recorder.
func (b *fbBase) Ops() *Recorder { return b.rec }

// Stop halts the personality.
func (b *fbBase) Stop() { b.stopped = true }

// WrittenBytes reports bytes accepted from the application's writes.
func (b *fbBase) WrittenBytes() float64 { return b.written }

// FSConfig parameterizes the file-server personality: create, read,
// write, delete over a directory tree (FileBench fileserver).
type FSConfig struct {
	Threads int
	// MeanFileSize for whole-file reads/writes (default 128 KiB).
	MeanFileSize int64
	// ThinkTime between operations (default 100 µs of CPU).
	Think sim.Duration
	// Op mix fractions (whole-file write, log append, whole-file read;
	// the remainder is metadata/delete). Defaults 0.35/0.20/0.35.
	WriteFrac, AppendFrac, ReadFrac float64
	// BurstOn/BurstOff alternate active and quiet phases (both zero =
	// steady load). Fileserver traffic is bursty; the quiet phases are
	// where coordinated flushing finds spare bandwidth.
	BurstOn, BurstOff sim.Duration
}

// fsAppendSize is the size of one log append.
const fsAppendSize = 16 << 10

// FS is the FileBench fileserver personality: a metadata- and write-heavy
// mix of small whole-file operations (create/write/read/append/delete).
type FS struct {
	fbBase
	cfg    FSConfig
	quiet  bool
	parked []*guest.Process
}

// NewFS builds a file-server personality on disk d of guest g.
func NewFS(k *sim.Kernel, g *guest.Guest, d *guest.VDisk, cfg FSConfig, rng *stats.Stream) *FS {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.MeanFileSize <= 0 {
		cfg.MeanFileSize = 128 << 10
	}
	if cfg.Think <= 0 {
		cfg.Think = 100 * sim.Microsecond
	}
	if cfg.WriteFrac <= 0 {
		cfg.WriteFrac = 0.35
	}
	if cfg.AppendFrac <= 0 {
		cfg.AppendFrac = 0.20
	}
	if cfg.ReadFrac <= 0 {
		cfg.ReadFrac = 0.35
	}
	return &FS{fbBase: newFbBase(k, g, d, rng), cfg: cfg}
}

// Start launches the worker threads and, when configured, the burst
// phase cycle (staggered by a random offset so populations of FS VMs do
// not lockstep).
func (f *FS) Start() {
	for i := 0; i < f.cfg.Threads; i++ {
		p := f.g.NewProcess(1)
		f.worker(p)
	}
	if f.cfg.BurstOn > 0 && f.cfg.BurstOff > 0 {
		offset := sim.Duration(f.rng.Int63n(int64(f.cfg.BurstOn + f.cfg.BurstOff)))
		f.k.After(offset, f.phaseOff)
	}
}

func (f *FS) phaseOff() {
	if f.stopped {
		return
	}
	f.quiet = true
	f.k.After(f.cfg.BurstOff, f.phaseOn)
}

func (f *FS) phaseOn() {
	if f.stopped {
		return
	}
	f.quiet = false
	parked := f.parked
	f.parked = nil
	for _, p := range parked {
		f.worker(p)
	}
	f.k.After(f.cfg.BurstOn, f.phaseOff)
}

func (f *FS) worker(p *guest.Process) {
	if f.stopped {
		return
	}
	if f.quiet {
		f.parked = append(f.parked, p)
		return
	}
	start := f.k.Now()
	f.rec.started++
	size := int64(f.rng.Exponential(1.0/float64(f.cfg.MeanFileSize))) + 4096
	finish := func() {
		f.rec.completed++
		f.rec.Latency.Record(f.k.Now() - start)
		p.Compute(f.cfg.Think, func() { f.worker(p) })
	}
	// FileBench fileserver flow: weighted op mix.
	switch r := f.rng.Float64(); {
	case r < f.cfg.WriteFrac: // create+write a whole file (buffered)
		f.written += float64(size)
		f.d.Write(p, size, finish)
	case r < f.cfg.WriteFrac+f.cfg.AppendFrac: // append to a log
		f.written += fsAppendSize
		f.d.Write(p, fsAppendSize, finish)
	case r < f.cfg.WriteFrac+f.cfg.AppendFrac+f.cfg.ReadFrac: // whole-file read
		f.d.Read(p, size, false, finish)
	default: // delete: metadata update, small journal write
		f.written += 4096
		f.d.Write(p, 4096, finish)
	}
}

// WSConfig parameterizes the web-server personality: read web pages,
// append to an access log.
type WSConfig struct {
	Threads int
	Think   sim.Duration // default 200 µs
}

const (
	wsPageSize = 16 << 10 // one web page read
	wsLogSize  = 4 << 10  // access-log append, every 10 reads
)

// WS is the FileBench webserver personality (read-mostly).
type WS struct {
	fbBase
	cfg   WSConfig
	reads map[*guest.Process]int
}

// NewWS builds a web-server personality.
func NewWS(k *sim.Kernel, g *guest.Guest, d *guest.VDisk, cfg WSConfig, rng *stats.Stream) *WS {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Think <= 0 {
		cfg.Think = 200 * sim.Microsecond
	}
	return &WS{fbBase: newFbBase(k, g, d, rng), cfg: cfg, reads: map[*guest.Process]int{}}
}

// Start launches the worker threads.
func (w *WS) Start() {
	for i := 0; i < w.cfg.Threads; i++ {
		p := w.g.NewProcess(1)
		w.worker(p)
	}
}

func (w *WS) worker(p *guest.Process) {
	if w.stopped {
		return
	}
	start := w.k.Now()
	w.rec.started++
	finish := func() {
		w.rec.completed++
		w.rec.Latency.Record(w.k.Now() - start)
		p.Compute(w.cfg.Think, func() { w.worker(p) })
	}
	w.reads[p]++
	if w.reads[p]%10 == 0 {
		w.written += wsLogSize
		w.d.Write(p, wsLogSize, finish)
		return
	}
	w.d.Read(p, wsPageSize, false, finish)
}

// VSConfig parameterizes the video-server personality: streaming readers
// plus one thread adding new videos.
type VSConfig struct {
	Readers   int
	VideoSize int64 // new-video size, default 64 MiB
	// AddInterval between new videos (default 10 s).
	AddInterval sim.Duration
}

// vsChunkSize is the streaming read and upload write unit.
const vsChunkSize int64 = 1 << 20

// VS is the FileBench videoserver personality.
type VS struct {
	fbBase
	cfg VSConfig
}

// NewVS builds a video-server personality.
func NewVS(k *sim.Kernel, g *guest.Guest, d *guest.VDisk, cfg VSConfig, rng *stats.Stream) *VS {
	if cfg.Readers <= 0 {
		cfg.Readers = 4
	}
	if cfg.VideoSize <= 0 {
		cfg.VideoSize = 64 << 20
	}
	if cfg.AddInterval <= 0 {
		cfg.AddInterval = 10 * sim.Second
	}
	return &VS{fbBase: newFbBase(k, g, d, rng), cfg: cfg}
}

// Start launches readers and the writer.
func (v *VS) Start() {
	for i := 0; i < v.cfg.Readers; i++ {
		p := v.g.NewProcess(1)
		v.reader(p)
	}
	v.writer(v.g.NewProcess(1))
}

func (v *VS) reader(p *guest.Process) {
	if v.stopped {
		return
	}
	start := v.k.Now()
	v.rec.started++
	v.d.Read(p, vsChunkSize, true, func() {
		v.rec.completed++
		v.rec.Latency.Record(v.k.Now() - start)
		// Streaming pace: decode time per chunk.
		p.Compute(500*sim.Microsecond, func() { v.reader(p) })
	})
}

func (v *VS) writer(p *guest.Process) {
	if v.stopped {
		return
	}
	// Upload a new video in 1 MiB buffered writes, then wait.
	remaining := v.cfg.VideoSize
	var step func()
	step = func() {
		if v.stopped {
			return
		}
		if remaining <= 0 {
			v.k.After(v.cfg.AddInterval, func() { v.writer(p) })
			return
		}
		chunk := vsChunkSize
		if remaining < chunk {
			chunk = remaining
		}
		remaining -= chunk
		v.written += float64(chunk)
		v.d.Write(p, chunk, step)
	}
	step()
}

// MultiStream sequentially reads multiple files concurrently — the
// multi-stream read workload of Sec. 5.5 and the Sec. 2 motivation test.
type MultiStream struct {
	fbBase
	// Streams is the thread count; each reads FileSize bytes in
	// ChunkSize sequential requests, then starts the next file.
	Streams   int
	FileSize  int64
	ChunkSize int64
	// Files bounds files per stream (0 = unbounded until Stop).
	Files int

	finished int
	// OnAllDone fires when every stream has read its Files quota.
	OnAllDone func()
}

// NewMultiStream builds the generator (defaults: 8 streams × 1 GiB files
// in 1 MiB chunks, matching the Sec. 2 test).
func NewMultiStream(k *sim.Kernel, g *guest.Guest, d *guest.VDisk, streams int, fileSize, chunk int64, rng *stats.Stream) *MultiStream {
	if streams <= 0 {
		streams = 8
	}
	if fileSize <= 0 {
		fileSize = 1 << 30
	}
	if chunk <= 0 {
		chunk = 1 << 20
	}
	return &MultiStream{
		fbBase: newFbBase(k, g, d, rng), Streams: streams, FileSize: fileSize, ChunkSize: chunk,
	}
}

// Start launches the streams.
func (m *MultiStream) Start() {
	for i := 0; i < m.Streams; i++ {
		p := m.g.NewProcess(1)
		m.stream(p, 0, 0)
	}
}

func (m *MultiStream) stream(p *guest.Process, filesDone int, offset int64) {
	if m.stopped {
		return
	}
	if offset >= m.FileSize {
		filesDone++
		if m.Files > 0 && filesDone >= m.Files {
			m.finished++
			if m.finished == m.Streams && m.OnAllDone != nil {
				m.OnAllDone()
			}
			return
		}
		offset = 0
	}
	start := m.k.Now()
	m.rec.started++
	chunk := m.ChunkSize
	if m.FileSize-offset < chunk {
		chunk = m.FileSize - offset
	}
	m.d.Read(p, chunk, true, func() {
		m.rec.completed++
		m.rec.Latency.Record(m.k.Now() - start)
		m.stream(p, filesDone, offset+chunk)
	})
}
