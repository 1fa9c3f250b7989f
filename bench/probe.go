package main

import (
	"runtime"
	"sync"
	"time"
)

// The host the benchmark runs on is shared: how fast a core executes the
// same instructions drifts by tens of percent over tens of seconds, with
// the load other tenants put on the machine. A speed probe therefore
// samples the core's speed on a fixed arithmetic loop throughout each run,
// and every time the run reports is scaled to a fixed reference speed.
// The loop touches no memory and is benchmark code, so a change to the
// program cannot move it: a program that gets faster reports smaller
// scaled times, while a host that gets slower does not.

// probeSteps is the length of one speed sample: about 8 ms of xorshift
// steps.
const probeSteps = 4_000_000

// probeEvery is the time between two speed samples. A sample costs under
// 5% of one processor.
const probeEvery = 200 * time.Millisecond

// refStepNS is the reference speed: one probe step per refStepNS
// nanoseconds of CPU time, about what an idle 2.0 GHz Xeon core gives.
const refStepNS = 2.0

var probeSink uint64

// probeStep runs probeSteps xorshift steps on the calling OS thread and
// returns the CPU time one step took, in nanoseconds. CPU time, not wall
// time, so a sample the scheduler interrupts still reads the core's speed.
func probeStep() float64 {
	c0 := threadCPU()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return float64(threadCPU()-c0) / probeSteps
}

// speedProbe samples the core speed every probeEvery from a goroutine of
// its own, locked to an OS thread, until finished.
type speedProbe struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []float64
}

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		p.samples = append(p.samples, probeStep())
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.samples = append(p.samples, probeStep())
			}
		}
	}()
	return p
}

// finish stops the probe (once; later calls return the same factor) and
// returns the run's speed factor: the reference step time over the
// median sampled one. A time measured in the run, multiplied by the
// factor, is the time at reference speed.
func (p *speedProbe) finish() float64 {
	p.once.Do(func() {
		close(p.stop)
		<-p.done
	})
	return refStepNS / p.stepNS()
}

// stepNS is the median sampled step time; call it after finish.
func (p *speedProbe) stepNS() float64 { return median(p.samples) }

// count is the number of samples taken; call it after finish.
func (p *speedProbe) count() int { return len(p.samples) }
