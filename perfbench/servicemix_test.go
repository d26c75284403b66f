package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestMixPlanShape(t *testing.T) {
	const blocks = 12
	for _, seed := range []int64{1, 7, 101} {
		plan := newMixPlan(seed, blocks)
		apps := map[string]int{}
		classes := map[string]int{}
		for b := 0; b < warmupRounds+blocks; b++ {
			pre := plan.prewarm(b)
			var specs []string
			for slot := 0; slot < mixBlock; slot++ {
				spec, class := plan.spec(b, slot)
				if b >= warmupRounds {
					classes[class]++
				}
				if reflect.DeepEqual(spec, pre) {
					t.Fatalf("seed %d block %d slot %d: measured spec equals the pre-warming one", seed, b, slot)
				}
				want := map[int]string{0: "warm", 1: "cold", 2: "hit"}[slot]
				if class != want {
					t.Fatalf("seed %d block %d slot %d: class %s, want %s", seed, b, slot, class, want)
				}
				key := spec.App + "|" + strings.Join(spec.Techniques, ",")
				if slot < mixBlock-1 {
					specs = append(specs, key)
					if slot == 0 && spec.App != pre.App {
						t.Fatalf("seed %d block %d slot %d: warm miss on %s, pre-warmed %s", seed, b, slot, spec.App, pre.App)
					}
					continue
				}
				found := false
				for _, s := range specs {
					found = found || s == key
				}
				if !found {
					t.Fatalf("seed %d block %d: repeat %s is none of the block's misses %v", seed, b, key, specs)
				}
			}
			for _, app := range []string{plan.appSpec(b, false), plan.appSpec(b, true)} {
				if prev, ok := apps[app]; ok {
					t.Fatalf("seed %d: instance %s used by blocks %d and %d", seed, app, prev, b)
				}
				apps[app] = b
			}
		}
		if classes["hit"] != blocks || classes["cold"] != blocks || classes["warm"] != blocks {
			t.Fatalf("seed %d: classes %v, want %d of each", seed, classes, blocks)
		}
	}
}

func TestMixPlanSameInstancesEverySeed(t *testing.T) {
	const blocks = 9
	set := func(seed int64) map[string]bool {
		plan := newMixPlan(seed, blocks)
		out := map[string]bool{}
		for b := warmupRounds; b < warmupRounds+blocks; b++ {
			for slot := 0; slot < mixBlock-1; slot++ {
				spec, _ := plan.spec(b, slot)
				out[spec.App+"|"+strings.Join(spec.Techniques, ",")] = true
			}
		}
		return out
	}
	if a, b := set(3), set(4); !reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 3 and 4 measure different misses:\n%v\n%v", a, b)
	}
}
