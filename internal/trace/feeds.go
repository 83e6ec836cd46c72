package trace

import (
	"fmt"
	"math"

	"streamop/internal/xrand"
)

// addrSpace draws Zipf-skewed addresses and ports, mimicking the heavy
// concentration of traffic on popular hosts in real captures.
type addrSpace struct {
	rng      *xrand.Rand
	srcZipf  *xrand.Zipf
	dstZipf  *xrand.Zipf
	portZipf *xrand.Zipf
}

func newAddrSpace(rng *xrand.Rand, hosts uint64) *addrSpace {
	return &addrSpace{
		rng:      rng,
		srcZipf:  xrand.NewZipf(rng, 1.1, hosts),
		dstZipf:  xrand.NewZipf(rng, 1.2, hosts),
		portZipf: xrand.NewZipf(rng, 1.05, 1024),
	}
}

// The synthetic address pools live in 10.x.x.x (sources) and 172.16+x
// (destinations) so sample outputs read like private-network captures.
func (a *addrSpace) src() uint32 { return 0x0a000000 + uint32(a.srcZipf.Uint64()) }
func (a *addrSpace) dst() uint32 { return 0xac100000 + uint32(a.dstZipf.Uint64()) }

func (a *addrSpace) ports() (sp, dp uint16) {
	dp = uint16(a.portZipf.Uint64()) + 1
	sp = uint16(32768 + a.rng.Intn(28000))
	return
}

// pktLen draws from the canonical bimodal internet packet-size mix:
// ~50% 40-byte acks, ~10% mid-size, ~40% full 1500-byte MTU.
func pktLen(rng *xrand.Rand) uint16 {
	switch p := rng.Float64(); {
	case p < 0.5:
		return 40
	case p < 0.6:
		return uint16(200 + rng.Intn(1000))
	default:
		return 1500
	}
}

func proto(rng *xrand.Rand) uint8 {
	if rng.Float64() < 0.9 {
		return 6 // TCP
	}
	return 17 // UDP
}

// BurstyConfig parameterizes the research-center tap substitute.
type BurstyConfig struct {
	// Seed makes the feed reproducible.
	Seed uint64
	// Duration is the simulated capture length in seconds.
	Duration float64
	// BaseRate is the center packet rate in packets/sec; the paper's
	// feed swings 5,000-15,000 pps around 10,000.
	BaseRate float64
	// Swing is the relative amplitude of the slow sinusoidal component
	// (0.5 swings BaseRate by ±50%).
	Swing float64
	// DropEvery inserts a severe load collapse (to DropFraction of the
	// base rate) every DropEvery seconds for DropLength seconds. Zero
	// disables collapses.
	DropEvery, DropLength float64
	// DropFraction is the collapsed load level (e.g. 0.01 = 1% of base).
	DropFraction float64
	// Hosts is the size of each Zipf address pool.
	Hosts uint64
}

// DefaultBursty mimics the paper's research-center feed: 5k-15k pps,
// highly variable, with sharp collapses that expose the non-relaxed
// subset-sum threshold carry-over problem (Figures 2-4).
func DefaultBursty(seed uint64, duration float64) BurstyConfig {
	return BurstyConfig{
		Seed:         seed,
		Duration:     duration,
		BaseRate:     10000,
		Swing:        0.5,
		DropEvery:    160,
		DropLength:   40,
		DropFraction: 0.02,
		Hosts:        8192,
	}
}

// Bursty is the variable-rate feed.
type Bursty struct {
	cfg   BurstyConfig
	rng   *xrand.Rand
	addrs *addrSpace
	now   float64 // simulated seconds
	ar    float64 // AR(1) log-rate noise
	end   float64
}

// NewBursty returns a bursty feed; it validates the configuration.
func NewBursty(cfg BurstyConfig) (*Bursty, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: Duration must be positive, got %v", cfg.Duration)
	}
	if cfg.BaseRate <= 0 {
		return nil, fmt.Errorf("trace: BaseRate must be positive, got %v", cfg.BaseRate)
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 8192
	}
	if cfg.DropFraction <= 0 {
		cfg.DropFraction = 0.02
	}
	rng := xrand.New(cfg.Seed)
	return &Bursty{
		cfg:   cfg,
		rng:   rng,
		addrs: newAddrSpace(rng, cfg.Hosts),
		end:   cfg.Duration,
	}, nil
}

// rate returns the instantaneous packet rate at simulated time t.
func (b *Bursty) rate(t float64) float64 {
	r := b.cfg.BaseRate * (1 + b.cfg.Swing*math.Sin(2*math.Pi*t/97))
	r *= math.Exp(b.ar)
	if b.cfg.DropEvery > 0 {
		phase := math.Mod(t, b.cfg.DropEvery)
		if phase > b.cfg.DropEvery-b.cfg.DropLength {
			r *= b.cfg.DropFraction
		}
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Next implements Feed.
func (b *Bursty) Next() (Packet, bool) {
	if b.now >= b.end {
		return Packet{}, false
	}
	// Evolve the AR(1) noise roughly every packet; the tiny step keeps
	// the log-rate random walk slow relative to the packet rate.
	b.ar = 0.9997*b.ar + 0.002*b.rng.NormFloat64()
	b.now += b.rng.ExpFloat64() / b.rate(b.now)
	if b.now >= b.end {
		return Packet{}, false
	}
	sp, dp := b.addrs.ports()
	return Packet{
		Time:    uint64(b.now * 1e9),
		SrcIP:   b.addrs.src(),
		DstIP:   b.addrs.dst(),
		SrcPort: sp,
		DstPort: dp,
		Proto:   proto(b.rng),
		Len:     pktLen(b.rng),
	}, true
}

// SteadyConfig parameterizes the data-center tap substitute.
type SteadyConfig struct {
	Seed     uint64
	Duration float64 // simulated seconds
	Rate     float64 // packets/sec; the paper's feed runs ~100,000
	Jitter   float64 // slow relative rate noise (e.g. 0.05 = ±5%)
	Hosts    uint64
}

// DefaultSteady mimics the paper's data-center feed: ~100k packets/sec
// (~400 Mbit/s), low variability — the feed used for the CPU-cost
// experiments (Figures 5-6).
func DefaultSteady(seed uint64, duration float64) SteadyConfig {
	return SteadyConfig{Seed: seed, Duration: duration, Rate: 100000, Jitter: 0.05, Hosts: 1 << 16}
}

// Steady is the high-rate low-variability feed.
type Steady struct {
	cfg   SteadyConfig
	rng   *xrand.Rand
	addrs *addrSpace
	now   float64
	end   float64
}

// NewSteady returns a steady feed; it validates the configuration.
func NewSteady(cfg SteadyConfig) (*Steady, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: Duration must be positive, got %v", cfg.Duration)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("trace: Rate must be positive, got %v", cfg.Rate)
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 1 << 16
	}
	rng := xrand.New(cfg.Seed)
	return &Steady{cfg: cfg, rng: rng, addrs: newAddrSpace(rng, cfg.Hosts), end: cfg.Duration}, nil
}

// Next implements Feed.
func (s *Steady) Next() (Packet, bool) {
	rate := s.cfg.Rate * (1 + s.cfg.Jitter*math.Sin(2*math.Pi*s.now/31))
	s.now += s.rng.ExpFloat64() / rate
	if s.now >= s.end {
		return Packet{}, false
	}
	sp, dp := s.addrs.ports()
	return Packet{
		Time:    uint64(s.now * 1e9),
		SrcIP:   s.addrs.src(),
		DstIP:   s.addrs.dst(),
		SrcPort: sp,
		DstPort: dp,
		Proto:   proto(s.rng),
		Len:     pktLen(s.rng),
	}, true
}

// DDoSConfig parameterizes the attack scenario from the paper's
// conclusion: a storm of tiny flows from spoofed sources that blows up any
// per-flow group table.
type DDoSConfig struct {
	Seed       uint64
	Duration   float64 // simulated seconds
	Background SteadyConfig
	// AttackStart/AttackEnd bound the attack in simulated seconds.
	AttackStart, AttackEnd float64
	// AttackRate is the attack packet rate in packets/sec.
	AttackRate float64
	// Victim is the attacked destination address.
	Victim uint32
}

// DefaultDDoS returns a scenario with a 100k pps random-source SYN flood
// against one victim in the middle third of the capture.
func DefaultDDoS(seed uint64, duration float64) DDoSConfig {
	bg := DefaultSteady(seed+1, duration)
	bg.Rate = 20000
	return DDoSConfig{
		Seed:        seed,
		Duration:    duration,
		Background:  bg,
		AttackStart: duration / 3,
		AttackEnd:   2 * duration / 3,
		AttackRate:  100000,
		Victim:      0xac100001,
	}
}

// FloodConfig parameterizes a spoofed-source SYN flood on its own.
type FloodConfig struct {
	Seed       uint64
	Start, End float64 // attack interval in simulated seconds
	Rate       float64 // packets/sec
	Victim     uint32  // attacked destination
}

// Flood generates only the attack packets: 40-byte SYNs to one victim from
// effectively unique spoofed sources.
type Flood struct {
	cfg FloodConfig
	rng *xrand.Rand
	now float64
}

// NewFlood returns the attack-only feed.
func NewFlood(cfg FloodConfig) (*Flood, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("trace: flood Rate must be positive, got %v", cfg.Rate)
	}
	if cfg.End <= cfg.Start {
		return nil, fmt.Errorf("trace: flood interval [%v, %v) is empty", cfg.Start, cfg.End)
	}
	return &Flood{cfg: cfg, rng: xrand.New(cfg.Seed), now: cfg.Start}, nil
}

// Next implements Feed.
func (f *Flood) Next() (Packet, bool) {
	if f.now >= f.cfg.End {
		return Packet{}, false
	}
	p := Packet{
		Time:    uint64(f.now * 1e9),
		SrcIP:   uint32(f.rng.Uint64n(1<<32-1) + 1), // spoofed: effectively unique
		DstIP:   f.cfg.Victim,
		SrcPort: uint16(1024 + f.rng.Intn(60000)),
		DstPort: 80,
		Proto:   6,
		Len:     40,
	}
	f.now += f.rng.ExpFloat64() / f.cfg.Rate
	return p, true
}

// merged interleaves two feeds in timestamp order.
type merged struct {
	a, b         Feed
	nextA, nextB Packet
	okA, okB     bool
}

// Merge returns a feed delivering the union of the two feeds' packets in
// timestamp order. Both inputs must themselves be time-ordered.
func Merge(a, b Feed) Feed {
	m := &merged{a: a, b: b}
	m.nextA, m.okA = a.Next()
	m.nextB, m.okB = b.Next()
	return m
}

// Next implements Feed.
func (m *merged) Next() (Packet, bool) {
	switch {
	case m.okA && (!m.okB || m.nextA.Time <= m.nextB.Time):
		p := m.nextA
		m.nextA, m.okA = m.a.Next()
		return p, true
	case m.okB:
		p := m.nextB
		m.nextB, m.okB = m.b.Next()
		return p, true
	default:
		return Packet{}, false
	}
}

// NewDDoS returns background traffic merged with the spoofed-source flood.
func NewDDoS(cfg DDoSConfig) (Feed, error) {
	bg, err := NewSteady(cfg.Background)
	if err != nil {
		return nil, err
	}
	flood, err := NewFlood(FloodConfig{
		Seed:   cfg.Seed,
		Start:  cfg.AttackStart,
		End:    minFloat(cfg.AttackEnd, cfg.Duration),
		Rate:   cfg.AttackRate,
		Victim: cfg.Victim,
	})
	if err != nil {
		return nil, err
	}
	return Merge(bg, flood), nil
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// FeedNames lists the synthetic feeds Open builds, as the -feed flags'
// help prints them.
const FeedNames = "bursty|steady|ddos|flows"

// Open builds the named synthetic feed (one of FeedNames) at its default
// configuration for seed and duration.
func Open(name string, seed uint64, duration float64) (Feed, error) {
	switch name {
	case "bursty":
		return NewBursty(DefaultBursty(seed, duration))
	case "steady":
		return NewSteady(DefaultSteady(seed, duration))
	case "ddos":
		return NewDDoS(DefaultDDoS(seed, duration))
	case "flows":
		return NewFlows(DefaultFlows(seed, duration))
	}
	return nil, fmt.Errorf("unknown feed %q", name)
}
