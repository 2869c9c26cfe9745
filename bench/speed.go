package main

import (
	"math/big"
	"time"
)

// The box this runs on is a shared VM whose speed drifts: identical runs
// minutes apart differ by up to 30 % in throughput, latency and CPU time
// per op alike, all four workloads together. No amount of measuring inside
// one run averages that away. So each client also times a fixed piece of
// work that owes nothing to the archive's code — one 2048-bit modular
// exponentiation with math/big and an 8 MiB memory copy, the two things
// the service's time goes on — every burstEvery of the window, in its
// think time between two ops, and the run reports its time-based metrics
// scaled by
//
//	speed = nominalBurst / median burst time of the run
//
// that is, as they would read on a box running at the nominal speed. A
// change to the archive moves a scaled metric exactly as it moves the raw
// one; the box's mood moves it far less. The raw values and the speed are
// printed beside the result.
const (
	burstEvery = 150 * time.Millisecond
	copyBytes  = 4 << 20
	// nominalBurst is what a burst took on the box the benchmark was
	// first recorded on, at its quiet best. Only ratios between runs
	// matter, so it is never to be re-tuned.
	nominalBurst = 4500 * time.Microsecond
)

// The RFC 3526 2048-bit prime, as the modulus of the burst's
// exponentiation; the exponent is the same number less one.
var burstModulus, _ = new(big.Int).SetString(
	"FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"+
		"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"+
		"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"+
		"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"+
		"98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"+
		"9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"+
		"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"+
		"3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF", 16)

// speedMeter belongs to one client. Its bursts take about 3 % of the
// client's time.
type speedMeter struct {
	base, exp, out *big.Int
	src, dst       []byte
	last           time.Time
	bursts         []float64 // ns each
}

func newSpeedMeter() *speedMeter {
	return &speedMeter{
		base: big.NewInt(4), exp: new(big.Int).Sub(burstModulus, big.NewInt(1)), out: new(big.Int),
		src: make([]byte, copyBytes), dst: make([]byte, copyBytes), last: time.Now(),
	}
}

// tick runs a burst if one is due.
func (m *speedMeter) tick() {
	if time.Since(m.last) < burstEvery {
		return
	}
	start := time.Now()
	m.out.Exp(m.base, m.exp, burstModulus)
	copy(m.dst, m.src)
	copy(m.src, m.dst)
	m.last = time.Now()
	m.bursts = append(m.bursts, float64(m.last.Sub(start).Nanoseconds()))
}

// speedOf is the run's speed and the CPU time its bursts used.
func speedOf(meters []*speedMeter) (speed float64, busy time.Duration) {
	var all []float64
	for _, m := range meters {
		all = append(all, m.bursts...)
		for _, ns := range m.bursts {
			busy += time.Duration(ns)
		}
	}
	if len(all) == 0 {
		return 1, 0 // a window shorter than burstEvery: nothing to scale by
	}
	return float64(nominalBurst.Nanoseconds()) / median(all), busy
}
