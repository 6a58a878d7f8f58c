package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a point in time with the kernel timer's precision
// and the Go scheduler's own wake-up path.
//
// Go's timers are as coarse as the scheduler's poll, a millisecond when
// the process is idle — several lookup latencies. A thread blocked in
// nanosleep wakes on time but re-enters the scheduler through the
// global run queue, where busy processors leave it waiting for tens of
// milliseconds. A timerfd read through the runtime's network poller has
// neither fault: the expiry is an epoll event, so an idle process wakes
// at once and a busy one readies the goroutine the way it readies any
// connection's reader — which is also how the serving replica's own
// handlers are woken.
type pacer struct {
	fd uintptr // kept apart: os.File.Fd would switch the file to blocking mode
	f  *os.File
}

// itimerspec mirrors struct itimerspec: the interval, then the first
// expiry.
type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns at t, or at once if t has passed.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
