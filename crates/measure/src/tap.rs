//! IBM Trace and Analysis Program (TAP) model (§5).
//!
//! "This tool allowed for the recording and time stamping of all packets
//! seen on the network, including all MAC frames. The tool also recorded
//! the first Token Ring adapter's buffer of actual packet data (up to 96
//! bytes) as well as the Token Ring's Access Control byte, Frame Control
//! byte and total length. However, there are limitations of the tool's
//! ability to record all packets." The model records frame observations
//! from the ring with a configurable minimum inter-record gap (the real
//! tool's capture limitation) and provides the §5 analyses: packet
//! ordering/loss detection for CTMSP streams, Ring Purge counting, and
//! the traffic-class breakdown of §5.3.

use ctms_sim::SimTime;
use ctms_tokenring::{fc_is_mac, FrameKind, FrameView, MacKind, Proto};

/// One TAP capture record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapRecord {
    /// Capture timestamp.
    pub at: SimTime,
    /// Access Control byte.
    pub ac: u8,
    /// Frame Control byte.
    pub fc: u8,
    /// Total frame length on the wire.
    pub total_len: u32,
    /// First bytes of the frame (modelled as the classification + tag the
    /// real 96-byte prefix would reveal).
    pub kind: FrameKind,
    /// CTMSP packet number (0 otherwise).
    pub tag: u64,
}

/// TAP configuration.
#[derive(Clone, Copy, Debug)]
pub struct TapCfg {
    /// Minimum gap between records; closer frames are missed (the real
    /// tool's documented capture limitation).
    pub min_record_gap: ctms_sim::Dur,
    /// Capture buffer capacity; older records are not overwritten (the
    /// tool stops capturing when full).
    pub buffer_records: usize,
}

impl Default for TapCfg {
    fn default() -> Self {
        TapCfg {
            min_record_gap: ctms_sim::Dur::from_us(30),
            buffer_records: 2_000_000,
        }
    }
}

/// §5.3's traffic classes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// ~20-byte MAC frames.
    pub mac: u64,
    /// 60–300-byte ARP / AFS keep-alive class.
    pub small: u64,
    /// ~1522-byte file-transfer class.
    pub file_transfer: u64,
    /// CTMSP frames.
    pub ctmsp: u64,
    /// Anything else.
    pub other: u64,
}

/// Stream-order analysis of the CTMSP packets TAP saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamAnalysis {
    /// CTMSP frames captured.
    pub captured: u64,
    /// Sequence gaps (lost packets).
    pub gaps: u64,
    /// Packets missing inside gaps.
    pub missing: u64,
    /// Out-of-order observations.
    pub out_of_order: u64,
    /// Duplicate packet numbers.
    pub duplicates: u64,
}

/// The TAP monitor.
#[derive(Debug)]
pub struct Tap {
    cfg: TapCfg,
    records: Vec<TapRecord>,
    purges: u64,
    missed: u64,
    last_record: Option<SimTime>,
    busy_ns: u64,
    first_at: Option<SimTime>,
    last_at: Option<SimTime>,
}

impl Tap {
    /// Creates the monitor.
    pub fn new(cfg: TapCfg) -> Self {
        Tap {
            cfg,
            records: Vec::new(),
            purges: 0,
            missed: 0,
            last_record: None,
            busy_ns: 0,
            first_at: None,
            last_at: None,
        }
    }

    /// Feeds one ring observation.
    pub fn observe(&mut self, at: SimTime, view: &FrameView) {
        self.first_at.get_or_insert(at);
        self.last_at = Some(at);
        // Purges are counted even when the record is dropped: the monitor
        // port sees them as MAC frames and the analysis counts kinds.
        if view.kind == FrameKind::Mac(MacKind::RingPurge) {
            self.purges += 1;
        }
        self.busy_ns += u64::from(view.wire_bytes) * 8 * 250; // 4 Mbit/s
        if let Some(last) = self.last_record {
            if at.since(last) < self.cfg.min_record_gap {
                self.missed += 1;
                return;
            }
        }
        if self.records.len() >= self.cfg.buffer_records {
            self.missed += 1;
            return;
        }
        self.last_record = Some(at);
        self.records.push(TapRecord {
            at,
            ac: view.ac,
            fc: view.fc,
            total_len: view.wire_bytes,
            kind: view.kind,
            tag: view.tag,
        });
    }

    /// Captured records.
    pub fn records(&self) -> &[TapRecord] {
        &self.records
    }

    /// Frames seen but not recorded (capture limitation).
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Ring Purges observed.
    pub fn purges(&self) -> u64 {
        self.purges
    }

    /// Fraction of wire time occupied by observed frames over the
    /// observation window.
    pub fn utilization(&self) -> f64 {
        match (self.first_at, self.last_at) {
            (Some(a), Some(b)) if b > a => self.busy_ns as f64 / b.since(a).as_ns() as f64,
            _ => 0.0,
        }
    }

    /// §5.3 traffic-class breakdown of captured records.
    pub fn breakdown(&self) -> TrafficBreakdown {
        let mut b = TrafficBreakdown::default();
        for r in &self.records {
            match r.kind {
                FrameKind::Mac(_) => b.mac += 1,
                FrameKind::Llc(Proto::Ctmsp) => b.ctmsp += 1,
                FrameKind::Llc(_) => {
                    if (60..=321).contains(&r.total_len) {
                        b.small += 1;
                    } else if (1500..=1550).contains(&r.total_len) {
                        b.file_transfer += 1;
                    } else {
                        b.other += 1;
                    }
                }
            }
        }
        debug_assert!(self
            .records
            .iter()
            .all(|r| fc_is_mac(r.fc) == matches!(r.kind, FrameKind::Mac(_))));
        b
    }

    /// Ordering/loss analysis of the captured CTMSP stream (§5: "Using
    /// the TAP tool, we were able to detect when packets were out of
    /// order and lost").
    pub fn analyze_stream(&self) -> StreamAnalysis {
        let mut a = StreamAnalysis::default();
        let mut last_seq: Option<u64> = None;
        for r in &self.records {
            if r.kind != FrameKind::Llc(Proto::Ctmsp) {
                continue;
            }
            a.captured += 1;
            if let Some(prev) = last_seq {
                if r.tag == prev {
                    a.duplicates += 1;
                    continue;
                } else if r.tag < prev {
                    a.out_of_order += 1;
                    continue;
                } else if r.tag > prev + 1 {
                    a.gaps += 1;
                    a.missing += r.tag - prev - 1;
                }
            }
            last_seq = Some(r.tag);
        }
        a
    }
}

impl ctms_sim::Persist for Tap {
    /// The capture buffer and counters; `cfg` is structural.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        enc.seq_len(self.records.len());
        for r in &self.records {
            enc.time(r.at);
            enc.u8(r.ac);
            enc.u8(r.fc);
            enc.u32(r.total_len);
            ctms_tokenring::persist_frame_kind(enc, r.kind);
            enc.u64(r.tag);
        }
        enc.u64(self.purges);
        enc.u64(self.missed);
        enc.opt(self.last_record.as_ref(), |e, t| e.time(*t));
        enc.u64(self.busy_ns);
        enc.opt(self.first_at.as_ref(), |e, t| e.time(*t));
        enc.opt(self.last_at.as_ref(), |e, t| e.time(*t));
    }

    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        self.records = dec.seq(|d| {
            Ok(TapRecord {
                at: d.time()?,
                ac: d.u8()?,
                fc: d.u8()?,
                total_len: d.u32()?,
                kind: ctms_tokenring::decode_frame_kind(d)?,
                tag: d.u64()?,
            })
        })?;
        self.purges = dec.u64()?;
        self.missed = dec.u64()?;
        self.last_record = dec.opt(|d| d.time())?;
        self.busy_ns = dec.u64()?;
        self.first_at = dec.opt(|d| d.time())?;
        self.last_at = dec.opt(|d| d.time())?;
        Ok(())
    }
}

impl ctms_sim::Instrument for Tap {
    /// Registers the monitor's capture summary: record/miss/purge counts,
    /// observed wire-busy time, the §5.3 class breakdown under `class.*`,
    /// the CTMSP stream analysis under `stream.*`, and utilization as an
    /// integer parts-per-million gauge (the registry carries no floats).
    fn publish(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        scope.counter("records", self.records.len() as u64);
        scope.counter("missed", self.missed);
        scope.counter("purges", self.purges);
        scope.counter("busy_ns", self.busy_ns);
        scope.gauge(
            "utilization_ppm",
            (self.utilization() * 1_000_000.0).round() as i64,
        );
        let b = self.breakdown();
        {
            let mut c = scope.scope("class");
            c.counter("mac", b.mac);
            c.counter("small", b.small);
            c.counter("file_transfer", b.file_transfer);
            c.counter("ctmsp", b.ctmsp);
            c.counter("other", b.other);
        }
        let a = self.analyze_stream();
        let mut s = scope.scope("stream");
        s.counter("captured", a.captured);
        s.counter("gaps", a.gaps);
        s.counter("missing", a.missing);
        s.counter("out_of_order", a.out_of_order);
        s.counter("duplicates", a.duplicates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::Dur;
    use ctms_tokenring::{ac_byte, FrameId, StationId};

    fn ctmsp_view(tag: u64) -> FrameView {
        FrameView {
            ac: ac_byte(4, false, 0),
            fc: 0x40,
            wire_bytes: 2021,
            src: StationId(0),
            dst: Some(StationId(1)),
            kind: FrameKind::Llc(Proto::Ctmsp),
            tag,
            id: FrameId(tag),
        }
    }

    fn mac_view(kind: MacKind) -> FrameView {
        FrameView {
            ac: ac_byte(0, false, 0),
            fc: 0x05,
            wire_bytes: 25,
            src: StationId(0),
            dst: None,
            kind: FrameKind::Mac(kind),
            tag: 0,
            id: FrameId(999),
        }
    }

    #[test]
    fn records_and_classifies() {
        let mut tap = Tap::new(TapCfg::default());
        tap.observe(
            SimTime::from_ms(1),
            &mac_view(MacKind::ActiveMonitorPresent),
        );
        tap.observe(SimTime::from_ms(2), &ctmsp_view(1));
        tap.observe(
            SimTime::from_ms(3),
            &FrameView {
                ac: ac_byte(0, false, 0),
                fc: 0x40,
                wire_bytes: 1522,
                src: StationId(2),
                dst: Some(StationId(3)),
                kind: FrameKind::Llc(Proto::Ip),
                tag: 0,
                id: FrameId(5),
            },
        );
        tap.observe(
            SimTime::from_ms(4),
            &FrameView {
                ac: ac_byte(0, false, 0),
                fc: 0x40,
                wire_bytes: 120,
                src: StationId(2),
                dst: None,
                kind: FrameKind::Llc(Proto::Arp),
                tag: 0,
                id: FrameId(6),
            },
        );
        let b = tap.breakdown();
        assert_eq!(b.mac, 1);
        assert_eq!(b.ctmsp, 1);
        assert_eq!(b.file_transfer, 1);
        assert_eq!(b.small, 1);
        assert_eq!(tap.records().len(), 4);
    }

    #[test]
    fn detects_loss_order_and_duplicates() {
        let mut tap = Tap::new(TapCfg::default());
        for (ms, tag) in [(1, 1u64), (13, 2), (25, 4), (37, 4), (49, 3), (61, 5)] {
            tap.observe(SimTime::from_ms(ms), &ctmsp_view(tag));
        }
        let a = tap.analyze_stream();
        assert_eq!(a.captured, 6);
        assert_eq!(a.gaps, 1);
        assert_eq!(a.missing, 1); // packet 3 skipped at first
        assert_eq!(a.duplicates, 1); // 4 twice
        assert_eq!(a.out_of_order, 1); // 3 after 4
    }

    #[test]
    fn capture_limitation_drops_close_frames() {
        let cfg = TapCfg {
            min_record_gap: Dur::from_us(100),
            ..TapCfg::default()
        };
        let mut tap = Tap::new(cfg);
        tap.observe(SimTime::from_us(0), &ctmsp_view(1));
        tap.observe(SimTime::from_us(50), &ctmsp_view(2)); // too close
        tap.observe(SimTime::from_us(200), &ctmsp_view(3));
        assert_eq!(tap.records().len(), 2);
        assert_eq!(tap.missed(), 1);
    }

    #[test]
    fn purge_counted_even_when_dropped() {
        let cfg = TapCfg {
            min_record_gap: Dur::from_ms(1),
            ..TapCfg::default()
        };
        let mut tap = Tap::new(cfg);
        tap.observe(SimTime::from_us(10), &ctmsp_view(1));
        tap.observe(SimTime::from_us(20), &mac_view(MacKind::RingPurge));
        assert_eq!(tap.purges(), 1);
        assert_eq!(tap.records().len(), 1);
    }

    #[test]
    fn utilization_estimate() {
        let mut tap = Tap::new(TapCfg::default());
        // Two 2021-byte frames over 24 ms: 2 × 4042 µs of wire time.
        tap.observe(SimTime::from_ms(0), &ctmsp_view(1));
        tap.observe(SimTime::from_ms(24), &ctmsp_view(2));
        let u = tap.utilization();
        assert!((u - 2.0 * 4.042 / 24.0).abs() < 0.01, "u={u}");
    }

    #[test]
    fn buffer_cap_stops_capture() {
        let cfg = TapCfg {
            buffer_records: 2,
            min_record_gap: Dur::ZERO,
        };
        let mut tap = Tap::new(cfg);
        for k in 0..5u64 {
            tap.observe(SimTime::from_ms(k), &ctmsp_view(k));
        }
        assert_eq!(tap.records().len(), 2);
        assert_eq!(tap.missed(), 3);
    }
}
