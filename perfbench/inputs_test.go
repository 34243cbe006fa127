package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameSchedule(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		a, err := warmEvents(seed, warmRate, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := warmEvents(seed, warmRate, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query-warm schedule differs between two draws of seed %d", seed)
		}
		if d1, d2 := dynamicEvents(seed, dynamicRate, 5*time.Second), dynamicEvents(seed, dynamicRate, 5*time.Second); !reflect.DeepEqual(d1, d2) {
			t.Errorf("query-dynamic schedule differs between two draws of seed %d", seed)
		}
		if g1, g2 := sweepGrid(seed), sweepGrid(seed); !reflect.DeepEqual(g1, g2) {
			t.Errorf("sweep-mixed grid order differs between two draws of seed %d", seed)
		}
	}
	if reflect.DeepEqual(dynamicEvents(1, dynamicRate, 5*time.Second), dynamicEvents(2, dynamicRate, 5*time.Second)) {
		t.Error("seeds 1 and 2 give the same query-dynamic schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	evs := dynamicEvents(3, dynamicRate, 20*time.Second)
	for i, ev := range evs {
		if i > 0 && ev.Due < evs[i-1].Due {
			t.Fatalf("event %d due before event %d", i, i-1)
		}
		if m := ev.Query.Shape.M; m < 1 || m > prefillMax {
			t.Fatalf("event %d has M=%d outside 1..%d", i, m, prefillMax)
		}
	}
	if got := len(sweepGrid(1)); got != 240 {
		t.Errorf("sweep grid has %d items, want 240", got)
	}
	ws, err := warmKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := warmEvents(1, warmRate, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range warm {
		if !ws.keys[keyOf(ev.Query)] {
			t.Fatalf("query-warm asks for %v %v, which is not warmed", ev.Query.Prim, ev.Query.Shape)
		}
		if ev.Query.Tenant == "" {
			t.Fatal("query-warm event without a tenant label")
		}
	}
}
