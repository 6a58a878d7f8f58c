package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// hostProbe is a fixed piece of work that measures how fast the host is
// at this moment: loopback TCP round trips between two goroutines (the
// kernel's socket path and the wake-up of a blocked reader, which every
// hop of the fleet pays), then a compute kernel on two goroutines at
// once (both processors busy, as during a commit or a restore).
//
// On a shared host the same fleet work takes 10–30 % more or less from
// one minute to the next, and the probe takes more or less with it: over
// ten seeds the probe's median and the medians of commit, freshness and
// restore time rise and fall together. The driver runs the probe at the
// start of every interval, outside every timed section, and the
// end-to-end commit, freshness and restore times are reported per unit
// of probe time (see normalized), which takes the host's share out of
// their run-to-run spread. The probe is the benchmark's own code: no
// change to the product can make it faster.
type hostProbe struct {
	near, far net.Conn
	echoDone  chan struct{}
	msg       [64]byte
	data      []float32
	sink      [2]float32
}

const (
	probeRoundTrips = 600
	probeKernelReps = 64
	// probeNominal is the probe's time on the 2-core reference box in a
	// quiet minute. Normalized times are scaled by it, so that they read
	// as milliseconds on such a host.
	probeNominal = 12 * time.Millisecond
	// probeTimeout turns a wedged probe connection into a failed run.
	probeTimeout = 10 * time.Second
)

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	p := &hostProbe{echoDone: make(chan struct{}), data: make([]float32, 32<<10)}
	for i := range p.data {
		p.data[i] = float32(i%7) * 0.25
	}
	accepted := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		p.far = c
		accepted <- err
	}()
	if p.near, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, err
	}
	if err := <-accepted; err != nil {
		p.near.Close()
		return nil, err
	}
	go func() {
		defer close(p.echoDone)
		var msg [64]byte
		for {
			if _, err := io.ReadFull(p.far, msg[:]); err != nil {
				return
			}
			if _, err := p.far.Write(msg[:]); err != nil {
				return
			}
		}
	}()
	return p, nil
}

// run does the probe's work once and returns how long it took.
func (p *hostProbe) run() (time.Duration, error) {
	t0 := time.Now()
	if err := p.near.SetDeadline(t0.Add(probeTimeout)); err != nil {
		return 0, err
	}
	for i := 0; i < probeRoundTrips; i++ {
		if _, err := p.near.Write(p.msg[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		if _, err := io.ReadFull(p.near, p.msg[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
	}
	var wg sync.WaitGroup
	for g := range p.sink {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var acc float32
			for rep := 0; rep < probeKernelReps; rep++ {
				for _, v := range p.data {
					acc = acc*0.999 + v
				}
			}
			p.sink[g] += acc // keeps the loop from being optimized away
		}(g)
	}
	wg.Wait()
	return time.Since(t0), nil
}

func (p *hostProbe) close() {
	p.near.Close()
	p.far.Close()
	<-p.echoDone
}

// normalized is a duration measured while the host probe took probe,
// scaled to a host on which the probe takes probeNominal, in
// milliseconds.
func normalized(d, probe time.Duration) float64 {
	return ms(d) * float64(probeNominal) / float64(probe)
}
