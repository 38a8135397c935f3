package bench

import (
	"fmt"
	"sort"
)

// This file is E7's model: cluster-level resource consolidation, placing
// tenant workloads on as few servers as their load allows and powering
// the rest down.
//
// §2.4 of the paper: "Recent work has considered using virtual machine
// migration and turning off servers to effect energy-proportionality
// [TWM+08]" — non-proportional servers waste most of their idle power, so
// a cluster of half-idle machines costs far more than a packed half-size
// cluster. The model is epoch-based and analytic: per epoch, a placement
// policy assigns tenants to nodes, busy nodes draw idle + per-core power,
// empty nodes are powered off, and re-assignments pay a migration energy
// proportional to tenant state size.

// nodeSpec is the power/capacity model of one server.
type nodeSpec struct {
	Cores        float64 // capacity in cores
	IdleWatts    float64 // powered but unloaded
	PerCoreWatts float64 // marginal watts per busy core
	OffWatts     float64 // powered down (iLO etc.)
}

// Power reports a node's draw at the given core load.
func (n nodeSpec) Power(load float64, poweredOn bool) float64 {
	if !poweredOn {
		return n.OffWatts
	}
	return n.IdleWatts + n.PerCoreWatts*load
}

// clusterTenant is one hosted workload with a per-epoch core demand.
type clusterTenant struct {
	Name      string
	DataBytes int64     // state that must move on migration
	Load      []float64 // cores demanded per epoch
}

// placementPolicy assigns tenants to nodes each epoch. prev is the
// previous assignment (nil on the first epoch); implementations return one
// node index per tenant.
type placementPolicy interface {
	Name() string
	Place(tenants []clusterTenant, epoch int, prev []int, nodes int, spec nodeSpec) []int
}

// spreadPlacement statically round-robins tenants across all nodes — the
// energy-oblivious baseline every load balancer implements.
type spreadPlacement struct{}

// Name implements placementPolicy.
func (spreadPlacement) Name() string { return "spread" }

// Place implements placementPolicy.
func (spreadPlacement) Place(tenants []clusterTenant, epoch int, prev []int, nodes int, spec nodeSpec) []int {
	out := make([]int, len(tenants))
	for i := range tenants {
		out[i] = i % nodes
	}
	return out
}

// consolidatePlacement packs tenants onto the fewest nodes each epoch
// using first-fit decreasing on current load, leaving the rest powered
// down.
type consolidatePlacement struct {
	// Headroom reserves a fraction of each node's capacity (0.1 = pack
	// to 90%), protecting against load spikes between epochs.
	Headroom float64
}

// Name implements placementPolicy.
func (c consolidatePlacement) Name() string { return "consolidate" }

// Place implements placementPolicy.
func (c consolidatePlacement) Place(tenants []clusterTenant, epoch int, prev []int, nodes int, spec nodeSpec) []int {
	cap := spec.Cores * (1 - c.Headroom)
	order := make([]int, len(tenants))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tenants[order[a]].Load[epoch] > tenants[order[b]].Load[epoch]
	})
	used := make([]float64, nodes)
	out := make([]int, len(tenants))
	for _, ti := range order {
		load := tenants[ti].Load[epoch]
		placed := false
		for n := 0; n < nodes; n++ {
			if used[n]+load <= cap {
				used[n] += load
				out[ti] = n
				placed = true
				break
			}
		}
		if !placed {
			// Overload: put it on the least-loaded node and accept the
			// capacity violation (counted by evaluateCluster).
			best := 0
			for n := 1; n < nodes; n++ {
				if used[n] < used[best] {
					best = n
				}
			}
			used[best] += load
			out[ti] = best
		}
	}
	return out
}

// stickyPlacement wraps consolidatePlacement but keeps a tenant on its
// previous node when that node still has room, trading packing quality for
// fewer migrations.
type stickyPlacement struct {
	Headroom float64
}

// Name implements placementPolicy.
func (s stickyPlacement) Name() string { return "sticky" }

// Place implements placementPolicy.
func (s stickyPlacement) Place(tenants []clusterTenant, epoch int, prev []int, nodes int, spec nodeSpec) []int {
	if prev == nil {
		return consolidatePlacement{Headroom: s.Headroom}.Place(tenants, epoch, prev, nodes, spec)
	}
	cap := spec.Cores * (1 - s.Headroom)
	used := make([]float64, nodes)
	out := make([]int, len(tenants))
	var homeless []int
	for ti := range tenants {
		n := prev[ti]
		load := tenants[ti].Load[epoch]
		if used[n]+load <= cap {
			used[n] += load
			out[ti] = n
			continue
		}
		homeless = append(homeless, ti)
	}
	for _, ti := range homeless {
		load := tenants[ti].Load[epoch]
		placed := false
		// Prefer already-busy nodes so empty ones can stay off.
		for n := 0; n < nodes; n++ {
			if used[n] > 0 && used[n]+load <= cap {
				used[n] += load
				out[ti] = n
				placed = true
				break
			}
		}
		if !placed {
			for n := 0; n < nodes; n++ {
				if used[n]+load <= cap {
					used[n] += load
					out[ti] = n
					placed = true
					break
				}
			}
		}
		if !placed {
			best := 0
			for n := 1; n < nodes; n++ {
				if used[n] < used[best] {
					best = n
				}
			}
			used[best] += load
			out[ti] = best
		}
	}
	return out
}

// ClusterPoint summarises an evaluated policy run.
type ClusterPoint struct {
	Policy          string
	TotalJoules     float64
	MigrationJoules float64
	Migrations      int64
	Violations      int64   // epoch-node capacity overruns
	MeanNodesOn     float64 // average powered-on nodes per epoch
}

// clusterConfig describes the evaluated cluster.
type clusterConfig struct {
	Nodes        int
	Spec         nodeSpec
	EpochSeconds float64
	// MigrationJPerByte prices moving tenant state (network + source +
	// destination work); 2008-era numbers are ~20-50 nJ/byte end to end.
	MigrationJPerByte float64
}

// evaluateCluster replays the tenants' load trace under the policy and
// returns the energy account.
func evaluateCluster(cfg clusterConfig, tenants []clusterTenant, policy placementPolicy) (ClusterPoint, error) {
	if cfg.Nodes <= 0 || len(tenants) == 0 {
		return ClusterPoint{}, fmt.Errorf("bench: need nodes and tenants")
	}
	epochs := len(tenants[0].Load)
	for _, tn := range tenants {
		if len(tn.Load) != epochs {
			return ClusterPoint{}, fmt.Errorf("bench: tenant %q trace length %d != %d", tn.Name, len(tn.Load), epochs)
		}
	}
	res := ClusterPoint{Policy: policy.Name()}
	var prev []int
	var nodesOnSum int64
	for e := 0; e < epochs; e++ {
		asn := policy.Place(tenants, e, prev, cfg.Nodes, cfg.Spec)
		if len(asn) != len(tenants) {
			return ClusterPoint{}, fmt.Errorf("bench: policy %q returned %d assignments", policy.Name(), len(asn))
		}
		load := make([]float64, cfg.Nodes)
		for ti, n := range asn {
			if n < 0 || n >= cfg.Nodes {
				return ClusterPoint{}, fmt.Errorf("bench: assignment to node %d", n)
			}
			load[n] += tenants[ti].Load[e]
		}
		for n := 0; n < cfg.Nodes; n++ {
			on := load[n] > 0
			if on {
				nodesOnSum++
				if load[n] > cfg.Spec.Cores {
					res.Violations++
				}
			}
			res.TotalJoules += cfg.Spec.Power(load[n], on) * cfg.EpochSeconds
		}
		if prev != nil {
			for ti := range tenants {
				if asn[ti] != prev[ti] {
					res.Migrations++
					mj := float64(tenants[ti].DataBytes) * cfg.MigrationJPerByte
					res.MigrationJoules += mj
					res.TotalJoules += mj
				}
			}
		}
		prev = asn
	}
	res.MeanNodesOn = float64(nodesOnSum) / float64(epochs)
	return res, nil
}
