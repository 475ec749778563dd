//! The single calibration table for the reproduction.
//!
//! Every cycle, latency and bandwidth constant used anywhere in the
//! simulation lives here, with a note on where its default comes from
//! (the paper itself, the hardware the paper used, or a standard
//! microarchitecture reference). EXPERIMENTS.md documents the
//! calibration run that validated these against the paper's reported
//! shapes.

/// Cost/latency constants. All cycle counts are for the evaluation
/// server's Xeon E5-2667v3 (3.2 GHz base).
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Core clock in GHz; converts cycles to simulated time.
    pub cpu_ghz: f64,

    // --- memory system -------------------------------------------------
    /// Effective stall cycles per 64 B line fetched from DRAM. Raw
    /// DRAM latency is ~200 cycles; streaming access patterns overlap
    /// misses (MLP ≈ 4–8), so the effective stall charged per line is
    /// much lower.
    pub dram_stall_cycles_per_line: f64,
    /// Cycles per line for data already in LLC (~45 cycles raw,
    /// heavily overlapped; charged per line touched).
    pub llc_hit_cycles_per_line: f64,

    // --- software operation costs --------------------------------------
    /// One syscall round trip (SYSCALL + kernel entry/exit + spectre
    /// mitigations of the era): ~600 ns on the eval hardware... kept
    /// in cycles.
    pub syscall_cycles: u64,
    /// Full context switch (thread handoff, scheduler, cache warmup
    /// excluded — that is modeled by the LLC).
    pub ctx_switch_cycles: u64,
    /// Pure ALU/SIMD cost of memcpy per byte (memory stalls are added
    /// by the LLC model, not this constant).
    pub memcpy_cycles_per_byte: f64,
    /// AES-128-GCM with AESNI+PCLMUL, data warm in cache: ~1 cycle /
    /// byte (paper §2.2: "as low as 1 CPU cycle/byte").
    pub aes_gcm_cycles_per_byte: f64,

    // --- network stack costs --------------------------------------------
    /// Per-TSO-send descriptor work in the userspace stack (header
    /// template, ring slot, doorbell share).
    pub tcp_tx_op_cycles: u64,
    /// Per-TSO-send cost for the second and later records of the same
    /// connection within one completion sweep: the TCB and socket
    /// state are already hot, the header is templated from the
    /// previous record and the ring doorbell is shared across the
    /// batch, leaving descriptor fill plus a fraction of the header
    /// work.
    pub tcp_tx_batched_op_cycles: u64,
    /// Per-ACK receive processing in the userspace stack.
    pub tcp_rx_ack_cycles: u64,
    /// Kernel-stack per-segment TX cost (mbuf alloc, socket locks,
    /// qdisc/driver path) — charged per wire segment after TSO
    /// amortization.
    pub kstack_tx_segment_cycles: u64,
    /// Kernel-stack per-ACK cost without LRO coalescing.
    pub kstack_rx_ack_cycles: u64,
    /// Multiplicative CPU saving of RSS-assisted LRO on the RX path
    /// (§2.1.3 reports 5–30%; the model uses the mid-band).
    pub lro_rx_discount: f64,

    // --- storage stack costs ---------------------------------------------
    /// libnvme cost to craft + enqueue one NVMe command (diskmap).
    pub nvme_submit_cycles: u64,
    /// libnvme cost to consume one completion (diskmap, polled).
    pub nvme_complete_cycles: u64,
    /// Extra kernel-side cost per I/O for the conventional stack
    /// (VFS, geom, biodone, buffer mapping).
    pub kernel_io_cycles: u64,
    /// aio(4)/kqueue extra per-I/O cost (kevent, aio job management).
    pub aio_io_cycles: u64,
    /// Interrupt handling cost (MSI-X dispatch + driver ISR), charged
    /// when completions are interrupt-driven rather than polled.
    pub interrupt_cycles: u64,
    /// Interrupt delivery latency (device completion → ISR running).
    pub interrupt_latency_ns: u64,

    // --- web server / VFS ------------------------------------------------
    /// nginx userspace work per HTTP request (parse, log, event loop).
    pub nginx_request_cycles: u64,
    /// Atlas userspace work per HTTP request.
    pub atlas_request_cycles: u64,
    /// sendfile setup per call (VFS lookup amortized, sf_buf setup).
    pub sendfile_call_cycles: u64,
    /// Buffer-cache page lookup/insert per 4 KiB page.
    pub bufcache_page_cycles: u64,
    /// VM page reclaim per 4 KiB page when the cache is thrashing
    /// (proactive scan, free-queue relink; §2.1.2).
    pub vm_reclaim_page_cycles: u64,
    /// Lock-contention multiplier applied to buffer-cache/VM work per
    /// additional core beyond the first (fake-NUMA partitioning keeps
    /// this small for Netflix; larger for stock).
    pub vm_contention_per_core: f64,
    /// Fraction of payload bytes the kernel TX path incidentally
    /// touches (mbuf/sf_buf handling, LRO merge inspection) —
    /// calibrated against Fig 11e's ~1.5× read ratio; see
    /// EXPERIMENTS.md.
    pub kstack_touch_fraction: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cpu_ghz: 3.2,
            dram_stall_cycles_per_line: 28.0,
            llc_hit_cycles_per_line: 2.0,
            syscall_cycles: 1400,
            ctx_switch_cycles: 4000,
            memcpy_cycles_per_byte: 0.06,
            aes_gcm_cycles_per_byte: 1.0,
            tcp_tx_op_cycles: 900,
            tcp_tx_batched_op_cycles: 300,
            tcp_rx_ack_cycles: 450,
            kstack_tx_segment_cycles: 820,
            kstack_rx_ack_cycles: 3600,
            lro_rx_discount: 0.18,
            nvme_submit_cycles: 450,
            nvme_complete_cycles: 350,
            kernel_io_cycles: 16000,
            aio_io_cycles: 6500,
            interrupt_cycles: 3000,
            interrupt_latency_ns: 6000,
            nginx_request_cycles: 30000,
            atlas_request_cycles: 6000,
            sendfile_call_cycles: 3200,
            bufcache_page_cycles: 1150,
            vm_reclaim_page_cycles: 2400,
            vm_contention_per_core: 0.035,
            kstack_touch_fraction: 0.45,
        }
    }
}

impl CostParams {
    /// Convert cycles to nanoseconds at the configured clock.
    #[must_use]
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        (cycles as f64 / self.cpu_ghz).ceil() as u64
    }

    /// Convert a nanosecond span to cycles.
    #[must_use]
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        (ns as f64 * self.cpu_ghz).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_round_trip() {
        let c = CostParams::default();
        // 3200 cycles at 3.2GHz = 1000ns.
        assert_eq!(c.cycles_to_ns(3200), 1000);
        assert_eq!(c.ns_to_cycles(1000), 3200);
    }

    #[test]
    fn defaults_are_sane() {
        let c = CostParams::default();
        assert!(c.aes_gcm_cycles_per_byte >= 0.5 && c.aes_gcm_cycles_per_byte <= 2.0);
        assert!(c.syscall_cycles > 0 && c.ctx_switch_cycles > c.syscall_cycles);
        assert!(c.dram_stall_cycles_per_line > c.llc_hit_cycles_per_line);
    }
}
