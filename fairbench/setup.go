package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"fairrank"
)

// designerDef is one designer a workload serves.
type designerDef struct {
	id   string
	inst *instance
}

// deployment is the running system a workload measures: one node, or three
// joined into a cluster.
type deployment struct {
	nodes []*node
	// owner maps each designer to the node that builds and serves it.
	owner map[string]*node
	// role maps designer → entry node id → "owner", "replica" or
	// "forwarded": how a read entering at that node is served.
	role map[string]map[string]string
}

func (d *deployment) stop() { stopAll(d.nodes) }

// setupFunc brings a deployment from nothing to every designer ready.
type setupFunc func(ctx context.Context, c *client, defs []designerDef) (*deployment, error)

// timedSetups runs setup sz.setups times, stops all but the last
// deployment, and returns it with the median set-up time and the Go heap the
// deployment holds after a forced GC.
func timedSetups(ctx context.Context, sz sizing, c *client, defs []designerDef, setup setupFunc) (*deployment, float64, float64, error) {
	base := liveHeap()
	var times []float64
	var dep *deployment
	for i := 0; i < sz.setups; i++ {
		if dep != nil {
			dep.stop()
			c.close()
		}
		start := time.Now()
		d, err := setup(ctx, c, defs)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		dep = d
	}
	heapMiB := (liveHeap() - base) / (1 << 20)
	return dep, median(times), heapMiB, nil
}

// liveHeap is the heap in use right after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func createAll(c *client, base string, defs []designerDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.inst.dataset] {
			continue
		}
		seen[d.inst.dataset] = true
		if err := c.createDataset(base, d.inst.dataset, d.inst.dsSpec); err != nil {
			return err
		}
	}
	for _, d := range defs {
		if err := c.createDesigner(base, d.id, d.inst.spec); err != nil {
			return err
		}
	}
	return nil
}

// setupSingle starts one node, registers the datasets and designers over
// HTTP, and waits until every build has finished.
func setupSingle(ctx context.Context, c *client, defs []designerDef) (*deployment, error) {
	n, err := startNode(fairrank.ClusterConfig{})
	if err != nil {
		return nil, err
	}
	dep := &deployment{nodes: []*node{n}, owner: map[string]*node{}, role: map[string]map[string]string{}}
	if err := createAll(c, n.url, defs); err != nil {
		dep.stop()
		return nil, err
	}
	for _, d := range defs {
		if err := n.srv.WaitReady(ctx, d.id); err != nil {
			dep.stop()
			return nil, fmt.Errorf("designer %s: %w", d.id, err)
		}
		dep.owner[d.id] = n
		dep.role[d.id] = map[string]string{n.id: "owner"}
	}
	return dep, nil
}

// setupCluster starts three nodes with one read replica per designer, joins
// the second and third through the first at runtime, registers the datasets
// and designers through the first, and waits until every owner has built and
// every follower holds a caught-up replica copy.
func setupCluster(ctx context.Context, c *client, defs []designerDef) (*deployment, error) {
	dep := &deployment{owner: map[string]*node{}, role: map[string]map[string]string{}}
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		n, err := startNode(fairrank.ClusterConfig{
			NodeID:              id,
			HealthInterval:      250 * time.Millisecond,
			AntiEntropyInterval: 100 * time.Millisecond,
			Replicas:            1,
		})
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.nodes = append(dep.nodes, n)
	}
	fail := func(err error) (*deployment, error) {
		dep.stop()
		return nil, err
	}
	seed := dep.nodes[0]
	for _, n := range dep.nodes[1:] {
		if err := n.srv.JoinCluster(ctx, seed.url); err != nil {
			return fail(fmt.Errorf("%s joins: %w", n.id, err))
		}
	}
	err := pollUntil(ctx, "membership", func() (bool, error) {
		version := seed.srv.ClusterStatus().RingVersion
		for _, n := range dep.nodes {
			st := n.srv.ClusterStatus()
			if st.RingVersion != version || len(st.Members) != len(dep.nodes) || st.Replicas != 1 {
				return false, nil
			}
			for _, m := range st.Members {
				if !m.Healthy {
					return false, nil
				}
			}
		}
		return true, nil
	})
	if err != nil {
		return fail(err)
	}
	if err := createAll(c, seed.url, defs); err != nil {
		return fail(err)
	}
	byID := map[string]*node{}
	for _, n := range dep.nodes {
		byID[n.id] = n
	}
	followers := map[string]*node{}
	for _, m := range seed.srv.ClusterStatus().Members {
		for _, d := range defs {
			if slices.Contains(m.Designers, d.id) {
				dep.owner[d.id] = byID[m.ID]
			}
			if slices.Contains(m.ReplicaFor, d.id) {
				followers[d.id] = byID[m.ID]
			}
		}
	}
	for _, d := range defs {
		owner, follower := dep.owner[d.id], followers[d.id]
		if owner == nil || follower == nil {
			return fail(fmt.Errorf("designer %s: no owner or follower in the cluster status", d.id))
		}
		dep.role[d.id] = map[string]string{}
		for _, n := range dep.nodes {
			switch n {
			case owner:
				dep.role[d.id][n.id] = "owner"
			case follower:
				dep.role[d.id][n.id] = "replica"
			default:
				dep.role[d.id][n.id] = "forwarded"
			}
		}
		if err := owner.srv.WaitReady(ctx, d.id); err != nil {
			return fail(fmt.Errorf("designer %s: %w", d.id, err))
		}
		err := pollUntil(ctx, "replica copy of "+d.id, func() (bool, error) {
			lags, err := c.promSeries(follower.url, "fairrank_replica_lag_generations")
			if err != nil {
				return false, err
			}
			lag, ok := lags[`fairrank_replica_lag_generations{designer="`+d.id+`"}`]
			return ok && lag == 0, nil
		})
		if err != nil {
			return fail(err)
		}
	}
	return dep, nil
}
