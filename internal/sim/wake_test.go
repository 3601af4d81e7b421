package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// dozer sleeps except on the cycles something wakes it: its own timers,
// deliveries on in (which it pops and logs), or a ring through its
// Wakeable callback. It logs every cycle it ticks; on the cycle in ringAt
// it rings bell, a component of its own shard.
type dozer struct {
	timers []uint64 // wake-up cycles, ascending
	in     *Port[uint64]
	bell   *dozer
	ringAt uint64
	wake   func()
	rung   bool
	ticks  []uint64
	got    [][2]uint64 // {cycle popped, message}
}

func (d *dozer) Tick(now uint64) {
	d.ticks = append(d.ticks, now)
	d.rung = false
	for d.in != nil {
		m, ok := d.in.Pop()
		if !ok {
			break
		}
		d.got = append(d.got, [2]uint64{now, m})
	}
	if d.bell != nil && now == d.ringAt {
		d.bell.rung = true
		d.bell.wake()
	}
}

func (d *dozer) Commit(uint64)    {}
func (d *dozer) SetWake(f func()) { d.wake = f }

func (d *dozer) Quiescent(now uint64) (bool, uint64) {
	if d.rung || (d.in != nil && !d.in.Empty()) {
		return false, 0
	}
	for _, t := range d.timers {
		if t > now {
			return true, t
		}
	}
	return true, WakeNever
}

// feeder ticks every cycle and sends its cycle over out on the cycles in
// at.
type feeder struct {
	out *Port[uint64]
	at  []uint64
}

func (f *feeder) Tick(now uint64) {
	if slices.Contains(f.at, now) {
		f.out.SendFrom(7, now, now, now)
	}
}
func (f *feeder) Commit(uint64) {}

// TestShardWakePaths: every component of the shard "doze" sleeps, so the
// engine skips the whole shard, and each must tick on exactly the cycles
// something wakes it:
//   - napper on its own timers (13, 14, 61);
//   - bell one cycle after napper rings it through its Wakeable callback
//     at cycle 14;
//   - inbox on the cycle each cross delivery from the feeder shard becomes
//     visible, four cycles after it was sent: sends at 20 and 72 fall due
//     on a window boundary and are released at the barrier, sends at 26
//     and 77 fall due inside a multi-cycle block and are released when the
//     shard resumes;
//   - mailbox one cycle after host code sends to it between two Run
//     calls;
//   - courier on cycle 88, when Run's done callback wakes it.
//
// The wirings cover 4-cycle windows of one round (every cross port takes
// 4 cycles), per-shard min-clock rounds (the feeder's window is 1, the
// doze shard's 4) and one-cycle windows (the same wiring at lookahead 1),
// each on one partition and on two with every dispatch handed to the
// workers.
func TestShardWakePaths(t *testing.T) {
	setProcs(t, 2)
	for _, tc := range []struct {
		name     string
		feedLoop bool   // give the feeder a 1-cycle input, narrowing its window
		look     uint64 // the SetLookahead cap
	}{
		{"epochs", false, 0},
		{"rounds", true, 0},
		{"one-cycle-epochs", true, 1},
	} {
		for _, parts := range []int{1, 2} {
			name := fmt.Sprintf("%s/parts=%d", tc.name, parts)
			e := NewEngine()
			e.SetMaxPartitions(parts)
			e.SetLookahead(tc.look)
			if parts > 1 {
				handOffAll(e)
			}
			cross := NewPort[uint64](0)
			cross.SetMinLatency(4)
			mail := NewPort[uint64](0)
			bell := &dozer{}
			napper := &dozer{timers: []uint64{13, 14, 61}, bell: bell, ringAt: 14}
			inbox := &dozer{in: cross}
			mailbox := &dozer{in: mail}
			courier := &dozer{}
			f := &feeder{out: cross, at: []uint64{20, 26, 72, 77}}
			e.AddShard("doze", napper, bell, inbox, mailbox, courier)
			e.AddShard("feed", f)
			e.AddCrossPortFor(inbox, cross)
			e.AddPortFor(mailbox, mail)
			if tc.feedLoop {
				loop := NewPort[uint64](0)
				e.AddCrossPortFor(f, loop)
			}

			wantLook := map[bool]uint64{false: 4, true: 1}[tc.feedLoop]
			wantDoze := uint64(4)
			if tc.look == 1 {
				wantDoze = 1
			}
			if look, wins := e.Lookahead(), e.WindowReport(); look != wantLook || wins[0].Window != wantDoze || wins[1].Window != wantLook {
				t.Fatalf("%s: lookahead %d, windows %v; want lookahead %d, doze window %d, feed window %d",
					name, look, wins, wantLook, wantDoze, wantLook)
			}
			if _, err := e.Run(50, nil); !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: %v", name, err)
			}
			if at := e.shards[0].workAt; at != 61 {
				t.Fatalf("%s: doze shard next has work at cycle %d after the first run, want 61", name, at)
			}
			mail.Send(9, 1, 4242)
			ring := func() bool {
				if e.Now() == 88 {
					courier.rung = true
					courier.wake()
				}
				return false
			}
			if _, err := e.Run(70, ring); !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: %v", name, err)
			}
			if parts > 1 {
				checkHandedOff(t, e)
			}

			for _, ck := range []struct {
				who  string
				d    *dozer
				want []uint64
			}{
				{"napper", napper, []uint64{0, 13, 14, 61}},
				{"bell", bell, []uint64{0, 15}},
				{"inbox", inbox, []uint64{0, 24, 30, 76, 81}},
				{"mailbox", mailbox, []uint64{0, 51}},
				{"courier", courier, []uint64{0, 88}},
			} {
				if !slices.Equal(ck.d.ticks, ck.want) {
					t.Errorf("%s: %s ticked on %v, want %v", name, ck.who, ck.d.ticks, ck.want)
				}
			}
			if got, want := fmt.Sprint(inbox.got), "[[24 20] [30 26] [76 72] [81 77]]"; got != want {
				t.Errorf("%s: inbox received %s, want %s", name, got, want)
			}
			if got, want := fmt.Sprint(mailbox.got), "[[51 4242]]"; got != want {
				t.Errorf("%s: mailbox received %s, want %s", name, got, want)
			}
		}
	}
}
