package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelZeroValueStartsAtZero(t *testing.T) {
	var k Kernel
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if len(k.events) != 0 {
		t.Fatalf("%d events queued, want 0", len(k.events))
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", k.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal timestamps)", i, v, i)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 150 {
		t.Fatalf("fired at %v, want 150", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, func() { fired = true })
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.canceled {
		t.Fatal("event not marked canceled after Cancel")
	}
	// Double-cancel and cancel-nil are no-ops.
	k.Cancel(e)
	k.Cancel(nil)
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	var e *Event
	k.At(5, func() { k.Cancel(e) })
	e = k.At(10, func() { fired = true })
	k.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntilAdvancesClockExactly(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(10, func() { fired = append(fired, k.Now()) })
	k.At(40, func() { fired = append(fired, k.Now()) })
	k.RunUntil(25)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if k.Now() != 25 {
		t.Fatalf("Now() = %v, want 25", k.Now())
	}
	k.RunUntil(100)
	if len(fired) != 2 || fired[1] != 40 {
		t.Fatalf("fired = %v, want [10 40]", fired)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	tk := k.Every(10, func() {
		ticks = append(ticks, k.Now())
	})
	k.At(35, func() { tk.Stop() })
	k.Run()
	want := []Time{10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	k := NewKernel()
	n := 0
	var tk *Ticker
	tk = k.Every(1, func() {
		n++
		if n == 5 {
			tk.Stop()
		}
	})
	k.Run()
	if n != 5 {
		t.Fatalf("ticked %d times, want 5", n)
	}
}

func TestExecutedCounts(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.At(Time(i), func() {})
	}
	e := k.At(100, func() {})
	k.Cancel(e)
	k.Run()
	if k.Executed() != 7 {
		t.Fatalf("Executed() = %d, want 7", k.Executed())
	}
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the clock ends at the max offset.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		k := NewKernel()
		var fired []Time
		var max Time
		for _, o := range offsets {
			tt := Time(o)
			if tt > max {
				max = tt
			}
			k.At(tt, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return k.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestDurationOf(t *testing.T) {
	if d := DurationOf(1.5); d != 1500*Millisecond {
		t.Errorf("DurationOf(1.5) = %v", d)
	}
	if d := DurationOf(-3); d != 0 {
		t.Errorf("DurationOf(-3) = %v, want 0", d)
	}
	if d := DurationOf(1e300); d != Forever {
		t.Errorf("DurationOf(1e300) = %v, want Forever", d)
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 1500 * Microsecond
	if got := tt.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := tt.Microseconds(); got != 1500 {
		t.Errorf("Microseconds() = %v, want 1500", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
}

// TestKernelSteadyStateAllocs pins the calendar's cost per event. With a
// pre-bound func, After (and At under it), Cancel and Run allocate
// nothing but the Event slab: one 64-event chunk per 64 events
// scheduled, 0.0156 per event. Events are carved from the slab and never
// recycled, because a handle a caller keeps must stay valid after its
// event fires. Cancel of a queued event is what reaches siftDown.
func TestKernelSteadyStateAllocs(t *testing.T) {
	k := NewKernel()
	fired := 0
	fn := func() { fired++ }
	const events = 64 * 64 // a whole number of slab chunks per run
	var evs [8]*Event
	run := func() {
		for i := 0; i < events; i += len(evs) {
			for j := range evs {
				evs[j] = k.After(Duration(1+j*5%8), fn)
			}
			k.Cancel(evs[2])
			k.Run()
		}
	}
	const budget = 1.0 / 64
	if perEvent := testing.AllocsPerRun(20, run) / events; perEvent > budget {
		t.Errorf("the calendar allocates %.4f times per event, budget %.4f (one slab chunk per 64)", perEvent, budget)
	} else {
		t.Logf("%.4f allocations per event (budget %.4f)", perEvent, budget)
	}
	if want := 21 * events * 7 / 8; fired != want {
		t.Errorf("%d events fired, want %d", fired, want)
	}
}
