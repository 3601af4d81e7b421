package noc_test

import (
	"fmt"
	"strings"
	"testing"

	"smarco/internal/chip"
	"smarco/internal/mem"
	"smarco/internal/noc"
)

// TestRouteTableMatchesResolver: on every ring of the small, medium and
// paper chips, the route table gives the stop the resolver and the
// attachment map give, for every core, hub, MC and host ID, both when it
// fills an entry and when it reads one back.
func TestRouteTableMatchesResolver(t *testing.T) {
	medium := chip.DefaultConfig()
	medium.SubRings, medium.CoresPerSub, medium.MCs = 8, 8, 4
	for _, tc := range []struct {
		name string
		cfg  chip.Config
	}{{"small", chip.SmallConfig()}, {"medium", medium}, {"paper", chip.DefaultConfig()}} {
		c, err := chip.Build(tc.cfg, mem.NewSparse())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ids := []noc.NodeID{noc.HostNode()}
		for i := 0; i < tc.cfg.Cores(); i++ {
			ids = append(ids, noc.CoreNode(i))
		}
		for s := 0; s < tc.cfg.SubRings; s++ {
			ids = append(ids, noc.HubNode(s))
		}
		for m := 0; m < tc.cfg.MCs; m++ {
			ids = append(ids, noc.MCNode(m))
		}
		rings := append([]*noc.Ring{c.MainRing}, c.SubRings...)
		checked := 0
		for _, r := range rings {
			for pass := 0; pass < 2; pass++ {
				for _, id := range ids {
					want, ok := r.ResolvedStop(id)
					if !ok {
						t.Fatalf("%s: ring %q cannot route to %v", tc.name, r.Name, id)
					}
					if got := r.TableStop(id); got != want {
						t.Fatalf("%s: ring %q pass %d routes %v to stop %d, want %d",
							tc.name, r.Name, pass, id, got, want)
					}
					checked++
				}
			}
		}
		if want := 2 * len(rings) * len(ids); checked != want {
			t.Fatalf("%s: checked %d routes, want %d", tc.name, checked, want)
		}
	}
}

// TestRouteTableUnroutablePanics: a destination no stop handles panics
// with the ring's diagnostic, on the first lookup and on every later one.
func TestRouteTableUnroutablePanics(t *testing.T) {
	r := noc.MustNewRing("r", 4, noc.DefaultSubRing(), 0)
	r.Attach(0, noc.CoreNode(0))
	r.Attach(1, noc.CoreNode(1))
	if got := r.TableStop(noc.CoreNode(1)); got != 1 {
		t.Fatalf("core1 routed to stop %d, want 1", got)
	}
	for pass := 0; pass < 2; pass++ {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if want := `noc: ring "r" cannot route to mc3 (resolved mc3)`; !strings.Contains(msg, want) {
					t.Fatalf("pass %d: panic %q, want %q", pass, msg, want)
				}
			}()
			r.TableStop(noc.MCNode(3))
		}()
	}
}
