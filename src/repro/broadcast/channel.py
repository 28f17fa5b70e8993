"""Broadcast channel simulator and client tuning sessions.

A :class:`ClientSession` models one client processing one query:

* the client *tunes in* at an arbitrary packet position,
* it may *receive* packets (each received packet counts toward tuning time
  and may be lost, per the channel's :class:`PacketLossModel`),
* it may *sleep* until a later packet position (no tuning cost), and
* at the end, its tuning time is the number of packets received and its
  access latency the number of packets elapsed since tune-in (paper
  Section 3.1).

Positions are *global*: they increase monotonically across cycle repetitions
(the server transmits identical cycles back to back), while
``position % cycle.total_packets`` gives the offset within the cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.packet import Segment

__all__ = ["PacketLossModel", "SegmentReception", "ClientSession", "BroadcastChannel"]


class PacketLossModel:
    """Independent (Bernoulli) per-packet loss with a fixed rate."""

    def __init__(self, loss_rate: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)

    def is_lost(self) -> bool:
        """Whether the next received packet is lost."""
        if self.loss_rate == 0.0:
            return False
        return self._rng.random() < self.loss_rate


@dataclass
class SegmentReception:
    """Outcome of receiving (part of) a segment."""

    segment: Segment
    #: Global packet position where the receive started.
    start_position: int
    #: Packet offsets *within the segment* that were requested.
    requested_offsets: List[int] = field(default_factory=list)
    #: Subset of requested offsets that were lost on the air.
    lost_offsets: List[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """``True`` when no requested packet was lost."""
        return not self.lost_offsets


class ClientSession:
    """One client's interaction with the broadcast channel for one query."""

    def __init__(
        self,
        cycle: BroadcastCycle,
        start_position: int,
        loss_model: Optional[PacketLossModel] = None,
    ) -> None:
        self.cycle = cycle
        self.start_position = start_position
        self.position = start_position
        self.loss_model = loss_model or PacketLossModel(0.0)
        self.tuning_packets = 0
        self.lost_packets = 0

    # ------------------------------------------------------------------
    # Elementary operations
    # ------------------------------------------------------------------
    def sleep_until(self, global_position: int) -> None:
        """Doze (radio off) until ``global_position``; no tuning cost."""
        if global_position < self.position:
            raise ValueError(
                f"cannot sleep backwards: at {self.position}, asked for {global_position}"
            )
        self.position = global_position

    def receive_one_packet(self) -> Segment:
        """Receive the packet currently on the air and advance one position.

        Used by clients right after tuning in, to read the pointer to the
        next index copy that every packet carries.
        """
        segment = self.cycle.segment_at(self.position)
        self._charge(1)
        self.position += 1
        return segment

    def receive_segment(self, name: str) -> SegmentReception:
        """Sleep until the named segment is next on the air and receive all of it."""
        segment = self.cycle.segment(name)
        return self.receive_segment_packets(name, range(segment.num_packets))

    def receive_segment_packets(
        self, name: str, packet_offsets: Sequence[int]
    ) -> SegmentReception:
        """Receive only the given packet offsets of the named segment.

        The client sleeps until the segment's next broadcast, listens only
        during the requested offsets (sleeping through the others), and ends
        positioned right after the last requested packet.
        """
        segment = self.cycle.segment(name)
        offsets = sorted(set(int(o) for o in packet_offsets))
        if not offsets:
            raise ValueError("packet_offsets must be non-empty")
        if offsets[0] < 0 or offsets[-1] >= segment.num_packets:
            raise ValueError(
                f"packet offsets {offsets} outside segment of {segment.num_packets} packets"
            )
        segment_start = self.cycle.next_segment_named(name, self.position)
        self.sleep_until(segment_start + offsets[0])
        lost: List[int] = []
        for offset in offsets:
            self.sleep_until(segment_start + offset)
            self._charge(1)
            self.position = segment_start + offset + 1
            if self.loss_model.is_lost():
                lost.append(offset)
                self.lost_packets += 1
        return SegmentReception(
            segment=segment,
            start_position=segment_start,
            requested_offsets=offsets,
            lost_offsets=lost,
        )

    def receive_full_cycle(self, max_retry_cycles: int = 50) -> int:
        """Receive one entire broadcast cycle starting from the current packet.

        This is what the full-cycle adaptations (Dijkstra, ArcFlag, Landmark)
        do: listen to every packet of one cycle, wherever the client happens
        to have tuned in.  Packets lost on the air are re-received in later
        cycle repetitions (charging tuning time again and extending the
        access latency), because a missing adjacency list would make the
        local search incorrect (paper Section 6.2).

        Returns the total number of packets received, retries included.
        """
        total = self.cycle.total_packets
        lost_offsets: List[int] = []
        for _ in range(total):
            self._charge(1)
            if self.loss_model.is_lost():
                lost_offsets.append(self.position % total)
                self.lost_packets += 1
            self.position += 1

        retries = 0
        received = total
        while lost_offsets and retries < max_retry_cycles:
            retries += 1
            still_lost: List[int] = []
            for offset in sorted(lost_offsets, key=lambda o: (o - self.position) % total):
                delta = (offset - self.position) % total
                self.sleep_until(self.position + delta)
                self._charge(1)
                received += 1
                self.position += 1
                if self.loss_model.is_lost():
                    still_lost.append(offset)
                    self.lost_packets += 1
            lost_offsets = still_lost
        return received

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def elapsed_packets(self) -> int:
        """Access latency so far: packets elapsed since tune-in."""
        return self.position - self.start_position

    def _charge(self, packets: int) -> None:
        self.tuning_packets += packets

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ClientSession(start={self.start_position}, position={self.position}, "
            f"tuned={self.tuning_packets})"
        )


class BroadcastChannel:
    """A broadcast cycle transmitted repeatedly, with optional packet loss."""

    def __init__(
        self,
        cycle: BroadcastCycle,
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.cycle = cycle
        self.loss_rate = loss_rate
        self._seed = seed
        self._session_count = 0

    def session(self, tune_in_offset: Optional[int] = None) -> ClientSession:
        """Open a client session.

        ``tune_in_offset`` fixes the cycle offset at which the client tunes
        in; when omitted, a deterministic pseudo-random offset is drawn (so
        repeated experiment runs are reproducible but different queries see
        different phases of the cycle, as in the paper's evaluation).
        """
        self._session_count += 1
        rng = random.Random(self._seed * 1_000_003 + self._session_count)
        if tune_in_offset is None:
            tune_in_offset = rng.randrange(self.cycle.total_packets)
        loss = PacketLossModel(self.loss_rate, seed=rng.randrange(2**31))
        return ClientSession(self.cycle, tune_in_offset, loss)
