package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	mmdb "repro"
	"repro/internal/cluster"
	"repro/internal/server"
)

// clusterDep is 2 shards × 2 replicas: four file-backed databases, each
// served over loopback HTTP with a replication runtime, joined into replica
// sets behind one coordinator — the wiring of `esidb serve -replica-of`
// processes under a shard map, in one process.
type clusterDep struct {
	coord  *cluster.Coordinator
	sets   []replicaGroup
	nodes  []*node
	cancel context.CancelFunc
	dir    string
	probes []*mmdb.Image
	build  time.Duration
	once   sync.Once
}

const (
	clusterShards   = 2
	clusterReplicas = 2
)

// replicaGroup is one shard's replica set and the nodes serving it.
type replicaGroup struct {
	rs    *cluster.ReplicaSet
	nodes []*node
}

func setupCluster(ctx context.Context, in *inputs, dir string) (deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rctx, cancel := context.WithCancel(context.Background())
	d := &clusterDep{cancel: cancel, dir: dir, probes: in.corpus.Probes}
	m := &cluster.ShardMap{}
	shards := make(map[string]cluster.Shard)
	for s := 0; s < clusterShards; s++ {
		var members []cluster.ReplicaMember
		var infos []cluster.ShardInfo
		var group replicaGroup
		for r := 0; r < clusterReplicas; r++ {
			id := fmt.Sprintf("s%d", s)
			if r > 0 {
				id = fmt.Sprintf("s%d-r%d", s, r)
			}
			db, err := mmdb.Open(mmdb.WithPath(filepath.Join(dir, id+".db")))
			if err != nil {
				d.close()
				return nil, err
			}
			rep := cluster.NewReplicator(rctx, id, db)
			n := newNode(id, db, server.New(db).WithReplication(cluster.ServeReplication{R: rep}))
			d.nodes = append(d.nodes, n)
			group.nodes = append(group.nodes, n)
			members = append(members, cluster.ReplicaMember{ID: id, Addr: n.ts.URL, Conn: cluster.NewHTTPReplica(id, n.ts.URL, nil)})
			infos = append(infos, cluster.ShardInfo{ID: id, Addr: n.ts.URL})
		}
		rs, err := cluster.NewReplicaSet(members[0].ID, members...)
		if err != nil {
			d.close()
			return nil, err
		}
		if err := rs.Bootstrap(ctx); err != nil {
			d.close()
			return nil, fmt.Errorf("bootstrap %s: %w", members[0].ID, err)
		}
		group.rs = rs
		d.sets = append(d.sets, group)
		m.Shards = append(m.Shards, cluster.ShardInfo{ID: infos[0].ID, Addr: infos[0].Addr, Replicas: infos[1:]})
		shards[members[0].ID] = rs
	}
	coord, err := cluster.New(m, shards, cluster.Options{})
	if err != nil {
		d.close()
		return nil, err
	}
	d.coord = coord
	// Load through the coordinator, which assigns ids 1..n in this order
	// and acks each write once a follower has applied it.
	for _, b := range in.corpus.Binaries {
		if _, _, err := coord.InsertImage(ctx, b.Name, b.Img); err != nil {
			d.close()
			return nil, fmt.Errorf("load %s: %w", b.Name, err)
		}
	}
	for _, e := range in.corpus.Edited {
		if _, _, err := coord.InsertSequence(ctx, e.Name, e.Seq); err != nil {
			d.close()
			return nil, fmt.Errorf("load %s: %w", e.Name, err)
		}
	}
	if d.build, err = warm(ctx, d, in, 0); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *clusterDep) do(ctx context.Context, o *op) (answer, error) {
	switch {
	case o.kind == kindKNN:
		res, err := d.coord.Similar(ctx, d.probes[o.probe], knnK, "l1", nil)
		if err != nil {
			return answer{}, err
		}
		if res.Partial {
			return answer{}, fmt.Errorf("partial k-NN answer, missed %v", res.Missed)
		}
		return answer{matches: res.Matches}, nil
	case o.kind == kindInsert && o.img != nil:
		id, _, err := d.coord.InsertImage(ctx, o.img.Name, o.img.Img)
		return answer{id: id}, err
	case o.kind == kindInsert:
		id, _, err := d.coord.InsertSequence(ctx, o.seq.Name, o.seq.Seq)
		return answer{id: id}, err
	default:
		res, err := d.coord.Query(ctx, o.text, o.kind, nil)
		if err != nil {
			return answer{}, err
		}
		if res.Partial {
			return answer{}, fmt.Errorf("partial answer, missed %v", res.Missed)
		}
		return answer{ids: res.IDs}, nil
	}
}

func (d *clusterDep) dbs() map[string]*mmdb.DB {
	out := make(map[string]*mmdb.DB, len(d.nodes))
	for _, n := range d.nodes {
		out[n.name] = n.db
	}
	return out
}

func (d *clusterDep) streeBuild() time.Duration { return d.build }

func (d *clusterDep) setTracer(t *tracer) {
	for _, n := range d.nodes {
		n.tr.Store(t)
	}
}

// close stops the replication loops first, so no long-poll holds a server
// open, then the servers, then the databases.
func (d *clusterDep) close() {
	d.once.Do(func() {
		d.cancel()
		for _, n := range d.nodes {
			n.ts.CloseClientConnections()
			n.ts.Close()
		}
		for _, n := range d.nodes {
			n.db.Close()
		}
	})
}

// finish waits for every follower to apply its leader's durable horizon,
// checks the coordinator's answers against one in-memory node holding the
// same objects under the same ids, then compacts every replica and
// measures the bytes on disk.
func (d *clusterDep) finish(ctx context.Context, in *inputs, acked []ack) (float64, error) {
	if err := d.converge(ctx); err != nil {
		return 0, err
	}
	twin, err := mmdb.Open()
	if err != nil {
		return 0, err
	}
	defer twin.Close()
	c := genCorpus(in.spec, in.seed)
	if err := load(ctx, twin, c); err != nil {
		return 0, err
	}
	if err := loadAcked(ctx, twin, acked); err != nil {
		return 0, err
	}
	for _, t := range in.texts[:8] {
		want, err := twin.QueryCompoundCtx(ctx, t, mmdb.ModeRBM)
		if err != nil {
			return 0, err
		}
		got, err := d.do(ctx, &op{kind: kindBWM, text: t})
		if err != nil {
			return 0, err
		}
		if !sameIDs(got.ids, want.IDs) {
			return 0, fmt.Errorf("cluster %q: %d ids, single node %d", t, len(got.ids), len(want.IDs))
		}
	}
	for p := 0; p < len(in.corpus.Probes); p++ {
		want, _, err := twin.QueryByExampleCtx(ctx, in.corpus.Probes[p], knnK, mmdb.MetricL1, mmdb.ModeRBM)
		if err != nil {
			return 0, err
		}
		got, err := d.do(ctx, &op{kind: kindKNN, probe: p})
		if err != nil {
			return 0, err
		}
		for i := range want {
			if i >= len(got.matches) || got.matches[i].ID != want[i].ID || math.Abs(got.matches[i].Dist-want[i].Dist) > 1e-9 {
				return 0, fmt.Errorf("cluster k-NN probe %d differs from single node at rank %d", p, i)
			}
		}
	}
	for _, n := range d.nodes {
		if err := n.db.Compact(); err != nil {
			return 0, fmt.Errorf("compact %s: %w", n.name, err)
		}
	}
	bytes, err := dirBytes(d.dir)
	if err != nil {
		return 0, err
	}
	return float64(bytes) / float64(len(twin.Binaries())+len(twin.EditedIDs())), nil
}

// converge blocks until each follower applied its leader's durable LSN.
func (d *clusterDep) converge(ctx context.Context) error {
	for _, g := range d.sets {
		leaderID := g.rs.LeaderID()
		var leader *node
		for _, n := range g.nodes {
			if n.name == leaderID {
				leader = n
			}
		}
		if leader == nil {
			return fmt.Errorf("set %s: leader %q is not one of its nodes", g.rs.ID(), leaderID)
		}
		wst, err := cluster.NewHTTPReplica(leader.name, leader.ts.URL, nil).WALStatus(ctx)
		if err != nil {
			return err
		}
		for _, n := range g.nodes {
			if n == leader {
				continue
			}
			st, err := cluster.NewHTTPReplica(n.name, n.ts.URL, nil).WaitApplied(ctx, wst.DurableLSN, 10*time.Second)
			if err != nil {
				return fmt.Errorf("follower %s: %w", n.name, err)
			}
			if st.AppliedLSN < wst.DurableLSN {
				return fmt.Errorf("follower %s applied %d < leader durable %d", n.name, st.AppliedLSN, wst.DurableLSN)
			}
		}
	}
	return nil
}

// loadAcked replays acked writes into db under their acked ids, in id
// order, so every script's base and targets precede it.
func loadAcked(ctx context.Context, db *mmdb.DB, acked []ack) error {
	sorted := append([]ack(nil), acked...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	for _, a := range sorted {
		var err error
		if a.op.img != nil {
			_, err = db.InsertImageCtx(ctx, a.op.img.Name, a.op.img.Img, mmdb.WithID(a.id))
		} else {
			_, err = db.InsertEditedCtx(ctx, a.op.seq.Name, a.op.seq.Seq, mmdb.WithID(a.id))
		}
		if err != nil {
			return fmt.Errorf("replay acked %d: %w", a.id, err)
		}
	}
	return nil
}
