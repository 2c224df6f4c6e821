"""Reference dependence graph (test side only): plain dicts built from a buffer's
``records`` with breadth-first closures, the oracle the packed store's column queries
and the indexed slicing engine (:mod:`repro.slicing.engine`) are held to."""

from collections import deque

from repro.ontrac.records import DepKind

NODE_KINDS = (DepKind.INSTR, DepKind.BRANCH)
SHARED_KINDS = (DepKind.MEM, DepKind.WAR, DepKind.WAW)


class OracleDDG:
    """``nodes`` maps seq -> (pc, tid), set by the first row naming the seq (an edge
    row names its consumer, then its producer, both with the row's tid);
    ``backward``/``forward`` map a seq to its (producer|consumer seq, kind) edges."""

    def __init__(self, records, complete=True):
        self.nodes, self.backward, self.forward = {}, {}, {}
        self.complete = complete
        for r in records:
            self.nodes.setdefault(r.consumer_seq, (r.consumer_pc, r.tid))
            if r.kind in NODE_KINDS:
                continue
            self.nodes.setdefault(r.producer_seq, (r.producer_pc, r.tid))
            self.backward.setdefault(r.consumer_seq, []).append((r.producer_seq, r.kind))
            self.forward.setdefault(r.producer_seq, []).append((r.consumer_seq, r.kind))

    @classmethod
    def of(cls, buf):
        """The oracle over a packed buffer's live window."""
        return cls(buf.records, complete=buf.stats.evicted == 0)

    def node_items(self):
        return ((seq, pc) for seq, (pc, _) in self.nodes.items())

    def pc_of(self, seq):
        return self.nodes[seq][0]

    def last_instance_of_pc(self, pc):
        return max((s for s, (p, _) in self.nodes.items() if p == pc), default=None)

    def _closure(self, criterion, kinds, edges):
        if criterion not in self.nodes:
            raise KeyError(f"criterion seq {criterion} is not in the DDG")
        seqs, truncated = set(), False
        queue, seen = deque([criterion]), {criterion}
        while queue:
            seq = queue.popleft()
            seqs.add(seq)
            if seq not in edges and edges is self.backward and not self.complete:
                truncated = True  # no stored producers: its history may be evicted
            for other, kind in edges.get(seq, ()):
                if kind in kinds and other not in seen:
                    seen.add(other)
                    queue.append(other)
        return seqs, {self.pc_of(s) for s in seqs}, truncated

    def backward_slice(self, criterion, kinds):
        """(seqs, pcs, truncated) of the backward closure."""
        return self._closure(criterion, kinds, self.backward)

    def forward_slice(self, criterion, kinds):
        """(seqs, pcs, False) of the forward closure."""
        return self._closure(criterion, kinds, self.forward)

    def reaching(self, targets, kinds):
        """Seqs from which some target is reachable (multi-source backward BFS)."""
        queue = deque(t for t in targets if t in self.nodes)
        seen = set(queue)
        while queue:
            for p, kind in self.backward.get(queue.popleft(), ()):
                if kind in kinds and p not in seen:
                    seen.add(p)
                    queue.append(p)
        return seen

    def cross_thread(self):
        """(kind, consumer seq, pc, tid, producer seq, pc, tid) of every MEM/WAR/WAW
        edge between two threads, by consumer seq (stable)."""
        found = [
            (kind, c, self.nodes[c][0], self.nodes[c][1], p, *self.nodes[p])
            for c, edges in self.backward.items()
            for p, kind in edges
            if kind in SHARED_KINDS and self.nodes[p][1] != self.nodes[c][1]
        ]
        return sorted(found, key=lambda d: d[1])
