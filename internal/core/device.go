package core

import (
	"fmt"
	"slices"
	"sync"

	"reveal/internal/obs"
	"reveal/internal/power"
	"reveal/internal/rv32"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// samplerPort is the MMIO device the firmware reads Gaussian samples from.
// Each read pops one queued value and stalls the bus for a data-dependent
// number of wait cycles, reproducing the time-variant behaviour of the
// soft-float distribution code (§III-C: "the distribution function shows
// time-variant execution behavior").
type samplerPort struct {
	values []int64
	waits  []int
	next   int
	reads  int
}

func (p *samplerPort) Read(offset uint32) (uint32, int) {
	p.reads++
	if p.next >= len(p.values) {
		return 0, 0
	}
	v := p.values[p.next]
	w := p.waits[p.next]
	p.next++
	return uint32(int32(v)), w
}

func (p *samplerPort) Write(uint32, uint32) int { return 0 }

// Device bundles the simulated measurement target: the RV32 core, the
// leakage model, and the port timing behaviour.
//
// Every capture reserves the next run number when it starts, and its
// measurement noise and trigger jitter depend only on NoiseSeed and that
// number. Capture and the other single-run captures reserve one number;
// CaptureEncryption reserves two (e1, then e2) before either run starts and
// renders both at once, so its traces equal two Capture calls in that
// order. A failed capture still spends what it reserved. Reserving is
// unsynchronized: a Device is not for concurrent callers (give each
// goroutine its own device; the model and the pooled buffers may be shared).
type Device struct {
	// Model is the power model; the port spike location is overridden to
	// the sampler port region automatically.
	Model *power.Model
	// WaitBase and WaitPerRejection set the port latency:
	// wait = WaitBase + WaitPerRejection · rejections.
	WaitBase, WaitPerRejection int
	// MemSize is the RAM size of the core.
	MemSize int
	// NoiseSeed seeds the measurement-noise PRNG; each capture draws from
	// a stream fixed by this seed and its run number, so repeated captures
	// differ like real traces.
	NoiseSeed uint64
	// TriggerJitter prepends up to this many noise-floor samples per
	// capture, modeling oscilloscope trigger uncertainty. The paper's
	// peak-based segmentation (§III-C) is invariant to it; naive
	// fixed-offset windowing is not.
	TriggerJitter int

	// runCounter is the last run number reserved; see nextRun.
	runCounter uint64
}

// NewDevice returns a device with the default profile: the measurement
// conditions that reproduce the partial-accuracy confusion structure of
// Table I.
func NewDevice(seed uint64) *Device {
	m := power.DefaultModel()
	m.PortBase = PortBase
	m.PortSize = 0x100
	return &Device{
		Model:            m,
		WaitBase:         9,
		WaitPerRejection: 7,
		MemSize:          1 << 17,
		NoiseSeed:        seed,
	}
}

// NewLowNoiseDevice returns a device measured under favourable conditions —
// lower acquisition noise and strongly heterogeneous bus lines — under
// which the template attack recovers nearly every coefficient exactly and
// full plaintext recovery from a single trace succeeds (the paper's
// headline claim, demonstrated end to end).
func NewLowNoiseDevice(seed uint64) *Device {
	d := NewDevice(seed)
	d.Model.NoiseSigma = 0.002
	for b := range d.Model.BitWeights {
		z := uint64(b)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0x94d049bb133111eb
		z ^= z >> 31
		frac := float64(z>>11) / (1 << 53)
		d.Model.BitWeights[b] = 1 + 0.9*(frac-0.5)
	}
	return d
}

// Capture runs the given firmware with the given queued noise values and
// returns the power trace. Each call reserves the next run number, so it
// uses fresh measurement noise.
func (d *Device) Capture(firmware []byte, values []int64, metas []sampler.SampleMeta) (trace.Trace, error) {
	return d.captureRun(d.nextRun(), firmware, values, metas)
}

// nextRun reserves and returns the next run number.
func (d *Device) nextRun() uint64 {
	d.runCounter++
	return d.runCounter
}

// captureRun is Capture under a run number the caller reserved. It touches
// no device state, so runs with distinct numbers may render concurrently.
func (d *Device) captureRun(run uint64, firmware []byte, values []int64, metas []sampler.SampleMeta) (trace.Trace, error) {
	sp := obs.StartSpan("capture")
	sp.AddItems(len(values))
	defer sp.End()
	return d.captureWithSetup(run, firmware, values, metas, nil)
}

// captureWithSetup additionally lets the caller plant device state (e.g. a
// secret key in RAM) before execution starts, via a word-writer callback.
func (d *Device) captureWithSetup(run uint64, firmware []byte, values []int64, metas []sampler.SampleMeta,
	setup func(write func(addr, v uint32) error) error) (trace.Trace, error) {
	if len(values) != len(metas) {
		return nil, fmt.Errorf("core: %d values but %d metas", len(values), len(metas))
	}
	port := &samplerPort{values: values, waits: make([]int, len(values))}
	for i, m := range metas {
		port.waits[i] = d.WaitBase + d.WaitPerRejection*m.Rejections
	}
	cpu, ram := d.newCPU()
	defer ramBufs.Put(ram)
	cpu.MapMMIO(PortBase, 0x100, port)
	if err := cpu.Load(firmware, 0); err != nil {
		return nil, err
	}
	if setup != nil {
		if err := setup(cpu.WriteWord); err != nil {
			return nil, err
		}
	}
	// Budget: each coefficient costs ~10 instructions; 64 is generous slack.
	samples, err := d.render(cpu, 64*(len(values)+4), run)
	if err != nil {
		return nil, err
	}
	if port.reads != len(port.values) {
		return nil, fmt.Errorf("core: firmware performed %d port reads for %d queued samples",
			port.reads, len(port.values))
	}
	if d.TriggerJitter > 0 {
		jitterPRNG := sampler.NewXoshiro256(d.NoiseSeed ^ run ^ 0x5151)
		shift := int(sampler.Uint64Below(jitterPRNG, uint64(d.TriggerJitter+1)))
		if shift > 0 {
			floor := samples.Mean()
			pre := make(trace.Trace, shift, shift+len(samples))
			jitterPRNG.NormFloat64s(pre)
			for i, n := range pre {
				pre[i] = floor + n*d.Model.NoiseSigma
			}
			samples = append(pre, samples...)
		}
	}
	return samples, nil
}

// ramBufs recycles the simulator's RAM across captures, devices and
// goroutines, as renderBufs does for render buffers.
var ramBufs = sync.Pool{New: func() any { return new([]byte) }}

// newCPU returns a core over d.MemSize bytes of zeroed RAM taken from
// ramBufs. Put ram back only after the last read of cpu.Mem.
func (d *Device) newCPU() (cpu *rv32.CPU, ram *[]byte) {
	ram = ramBufs.Get().(*[]byte)
	if cap(*ram) < d.MemSize {
		*ram = make([]byte, d.MemSize)
	} else {
		*ram = (*ram)[:d.MemSize]
		clear(*ram)
	}
	return &rv32.CPU{Mem: *ram}, ram
}

// renderBufs recycles render buffers across captures, devices and
// goroutines: a capture renders into a pooled buffer and copies out one
// exact-size trace, so a buffer grows once per pool entry rather than once
// per capture.
var renderBufs = sync.Pool{New: func() any { return new([]float64) }}

// render runs the loaded firmware on cpu for at most budget instructions
// under run's measurement noise and returns its power trace, copied out of
// a pooled render buffer into an exact-size trace.
func (d *Device) render(cpu *rv32.CPU, budget int, run uint64) (trace.Trace, error) {
	syn, err := power.NewSynthesizer(d.Model, sampler.NewXoshiro256(d.NoiseSeed^(run*0x9e3779b97f4a7c15)))
	if err != nil {
		return nil, err
	}
	buf := renderBufs.Get().(*[]float64)
	defer renderBufs.Put(buf)
	syn.RenderInto(*buf)
	cpu.OnEvent = syn.HandleEvent
	_, err = cpu.Run(budget)
	*buf = syn.Samples()
	if err != nil {
		return nil, fmt.Errorf("core: firmware run: %w", err)
	}
	samples := make(trace.Trace, len(*buf))
	copy(samples, *buf)
	return samples, nil
}

// SegmentCapture captures a trace and cuts it into the per-coefficient
// sub-traces using the port-spike peaks, returning exactly len(values)
// segments.
func (d *Device) SegmentCapture(firmware []byte, values []int64, metas []sampler.SampleMeta) (trace.Trace, []trace.Segment, error) {
	tr, err := d.Capture(firmware, values, metas)
	if err != nil {
		return nil, nil, err
	}
	segs, err := trace.SegmentEncryptionTrace(tr, len(values), 8)
	if err != nil {
		return nil, nil, err
	}
	return tr, segs, nil
}

// mmioRegionSpec describes one device region for captureRegions.
type mmioRegionSpec struct {
	base, size uint32
	handler    rv32.MMIOHandler
}

// captureRegions runs firmware with caller-provided MMIO regions (for
// kernels with custom port layouts, e.g. the masked variant); the caller
// is responsible for consumption checks.
func (d *Device) captureRegions(firmware []byte, regions []mmioRegionSpec, coeffs int) (trace.Trace, error) {
	run := d.nextRun()
	cpu, ram := d.newCPU()
	defer ramBufs.Put(ram)
	for _, r := range regions {
		cpu.MapMMIO(r.base, r.size, r.handler)
	}
	if err := cpu.Load(firmware, 0); err != nil {
		return nil, err
	}
	return d.render(cpu, 96*(coeffs+4), run)
}

// SyntheticMetas draws realistic rejection-count metadata (the timing side
// of the distribution call) without constraining the values, used when the
// profiler pins coefficient values.
func SyntheticMetas(prng sampler.PRNG, cn *sampler.ClippedNormal, n int) []sampler.SampleMeta {
	metas := make([]sampler.SampleMeta, n)
	for i := range metas {
		_, m := cn.Sample(prng)
		metas[i] = m
	}
	return metas
}

// Perturb returns a copy of the device with manufacturing-variation noise
// applied to its leakage coefficients: every bit-line weight and class
// base cost is scaled by 1 ± spread. Profiling on one device and attacking
// its perturbed sibling models the paper's §V-B cross-device caveat
// ("cross-device attacks may need a more complicated, machine-learning-
// based profiling").
func (d *Device) Perturb(seed uint64, spread float64) *Device {
	out := NewDevice(d.NoiseSeed ^ seed)
	*out.Model = *d.Model
	out.Model.Base = make(map[rv32.Class]float64, len(d.Model.Base))
	out.WaitBase = d.WaitBase
	out.WaitPerRejection = d.WaitPerRejection
	out.MemSize = d.MemSize

	prng := sampler.NewXoshiro256(seed)
	jitter := func() float64 {
		return 1 + spread*(2*sampler.Float64(prng)-1)
	}
	// Draw in ascending class order: ranging over the map would hand each
	// class whichever draw map iteration order gave it.
	classes := make([]rv32.Class, 0, len(d.Model.Base))
	for c := range d.Model.Base {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		out.Model.Base[c] = d.Model.Base[c] * jitter()
	}
	for b := range out.Model.BitWeights {
		out.Model.BitWeights[b] = d.Model.BitWeights[b] * jitter()
	}
	out.Model.AlphaHWData = d.Model.AlphaHWData * jitter()
	out.Model.BetaHDReg = d.Model.BetaHDReg * jitter()
	out.Model.DeltaHDBus = d.Model.DeltaHDBus * jitter()
	return out
}
