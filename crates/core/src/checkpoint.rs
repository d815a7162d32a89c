//! Crash-safe checkpointing of an in-progress anytime run.
//!
//! A [`Checkpoint`] captures the full anytime state at a block boundary —
//! the 7-state table, the super-node registry and its disjoint-set
//! structure, the phase cursors, the noise list, and the work lists — plus
//! fingerprints of the configuration and the graph, so a resumed run
//! provably continues the same computation (Lemma 4: it converges to the
//! same clustering as an uninterrupted run).
//!
//! # `ASCK` v2 on-disk format
//!
//! All integers little-endian, via [`anyscan_graph::io::framing`]:
//!
//! | section      | contents                                                   |
//! |--------------|------------------------------------------------------------|
//! | header       | magic `ASCK`, version u32                                  |
//! | config       | ε f64, μ u64, α u64, β u64, threads u64, seed u64, flags u32, then (v2+) sketch rows u32, sketch bits u32, hub cap u32, hub min-degree u32, retired slot u32 ([`RETIRED_SLOT`]) |
//! | graph        | n u64, arcs u64, edges u64, structure hash u64 (FNV-1a)    |
//! | progress     | phase u8, phase_initialized u8, draw/work cursors u64, blocks u64, cumulative ns u64, unions per step 3×u64, retired Step-1 base u64 |
//! | states       | n vertex-state bytes                                       |
//! | nei          | n × u32 certified-neighbor counts                          |
//! | super-nodes  | count u64, reps u32[], member offsets u64[], members u32[] |
//! | memberships  | offsets u64[n+1], flat u32[] (`SN_v` per vertex)           |
//! | dsu          | retired tag u8, len u32, canonical roots u32[] (one per super-node), retired finds u64, retired union total u64 |
//! | noise list   | count u64, vertices u32[], offsets u64[], flat `N^ε` u32[] |
//! | work         | len u64, u32[]; aux len u64, u64[] (`u64::MAX` = none)     |
//! | trailer      | FNV-1a 64 checksum of everything above                     |
//!
//! Flags word: bits 0–3 optimizations, sort Step 2, sort Step 3, skip Step
//! 2; bits 5–6 edge cache, role resolution; bits 7–8 reorder-mode code;
//! bits 11–12 sketch-mode code. Three bits are retired but keep their
//! place, so the layout and version stay unchanged: bit 4 once selected a
//! mutex-protected DSU (written as 0), and bits 9 and 10 once toggled hub
//! bitmaps and batched Step-1 range queries (written as 1, see
//! [`ALWAYS_ON_FLAGS`]). Readers ignore all three — the alternatives were
//! bit-identical to today's single path. Sketch code 1 belonged to the
//! retired assist mode, which was bit-identical to off; it decodes as
//! [`SketchMode::Off`], with its rows and bits still validated.
//!
//! The DSU section once came in two forms, a sequential structure during
//! Step 1 (tag 0) and a shared one after it (tag 1), each with operation
//! counters. Writers still write the tag, a find count of 0, and the union
//! total and Step-1 base derived from the per-step counts; readers check
//! the tag is 0 or 1 and read the counts through `step_unions`, so images
//! of both forms restore.
//!
//! Files are written atomically: temp file in the same directory, `fsync`,
//! rename over the target — a crash mid-write never corrupts an existing
//! checkpoint.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use anyscan_dsu::AtomicDsu;
use anyscan_graph::io::framing::{self, Fnv64};
use anyscan_graph::{CsrGraph, ReorderMode, VertexId};
use anyscan_scan_common::sketch::{self, SketchMode};
use anyscan_scan_common::ScanParams;
use anyscan_telemetry::Telemetry;

use crate::config::AnyScanConfig;
use crate::driver::{AnyScan, Phase, UnionBreakdown};
use crate::error::{AnyScanError, ErrorKind};
use crate::state::StateTable;
use crate::supernode::{SuperNode, SuperNodes};

use anyscan_graph::io::framing::{Buf, BufMut, Bytes, BytesMut};

/// Magic bytes of the checkpoint format.
pub const MAGIC: &[u8; 4] = b"ASCK";
/// Current format version. v2 adds the sketch-mode code (flags bits 11–12)
/// and a five-`u32` tuning tail (sketch rows/bits, hub cap/floor, and
/// [`RETIRED_SLOT`]) after the flags word; v1 images decode with the
/// defaults those runs actually used.
pub const VERSION: u32 = 2;
/// Value written to the fifth tuning-tail word. That word held the
/// index build's hash-probe crossover ratio, a knob that no longer exists
/// (every σ row is now one dense pass). Keeping the word keeps the layout
/// and version unchanged: writers store 16, the value every default run
/// wrote, and readers still reject 0 as corrupt (as the old decoder did)
/// but otherwise ignore it, so older images still restore.
pub const RETIRED_SLOT: u32 = 16;
/// Flag bits 9 and 10, which once toggled hub bitmaps and batched Step-1
/// range queries. Both paths are now always taken, so writers set both
/// bits, as every default run did, and readers ignore them.
pub const ALWAYS_ON_FLAGS: u32 = (1 << 9) | (1 << 10);
/// Oldest format version [`Checkpoint::from_bytes`] still reads.
pub const MIN_VERSION: u32 = 1;

const AUX_NONE: u64 = u64::MAX;

/// The per-step union counts of an image. Older writers left the slot of
/// the step in progress at 0; its count was the DSU's running union
/// `total` minus `step1_base`, the total at the end of Step 1 (0 during
/// Step 1). Writers now fill every slot and still derive both words, so
/// one rule reads every image.
fn step_unions(
    phase: Phase,
    slots: UnionBreakdown,
    total: u64,
    step1_base: u64,
) -> Result<UnionBreakdown, AnyScanError> {
    let live = total
        .checked_sub(step1_base)
        .ok_or_else(|| corrupt("DSU union total below its Step-1 base"))?;
    Ok(match phase {
        Phase::Summarize => UnionBreakdown {
            step1: live,
            step2: 0,
            step3: 0,
        },
        Phase::MergeStrong => UnionBreakdown {
            step2: live,
            step3: 0,
            ..slots
        },
        _ => UnionBreakdown {
            step3: live
                .checked_sub(slots.step2)
                .ok_or_else(|| corrupt("DSU union total below the Step-2 count"))?,
            ..slots
        },
    })
}

/// Structural identity of the graph a checkpoint was taken against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GraphFingerprint {
    n: u64,
    arcs: u64,
    edges: u64,
    hash: u64,
}

impl GraphFingerprint {
    fn of(g: &CsrGraph) -> GraphFingerprint {
        let mut h = Fnv64::new();
        for v in g.vertices() {
            h.update_u32(v);
            for (q, w) in g.neighbors(v) {
                h.update_u32(q);
                h.update_u64(w.to_bits());
            }
        }
        GraphFingerprint {
            n: g.num_vertices() as u64,
            arcs: g.num_arcs() as u64,
            edges: g.num_edges(),
            hash: h.finish(),
        }
    }
}

/// A serializable snapshot of an [`AnyScan`] run at a block boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    config: AnyScanConfig,
    graph: GraphFingerprint,
    phase: Phase,
    phase_initialized: bool,
    draw_cursor: u64,
    work_cursor: u64,
    blocks: u64,
    cumulative_ns: u64,
    unions: UnionBreakdown,
    states: Vec<u8>,
    nei: Vec<u32>,
    sn_nodes: Vec<SuperNode>,
    memberships: Vec<Vec<u32>>,
    /// Canonical DSU roots of super-nodes `0..sn_nodes.len()`.
    dsu_roots: Vec<u32>,
    noise: Vec<(VertexId, Vec<VertexId>)>,
    work: Vec<VertexId>,
    work_aux: Vec<Option<usize>>,
}

impl Checkpoint {
    /// Captures the current state of `algo`. Call only at a block boundary
    /// (i.e. between [`AnyScan::step`] calls), where Lemma 1 guarantees a
    /// consistent snapshot.
    pub(crate) fn capture(algo: &AnyScan<'_>) -> Checkpoint {
        let (nodes, memberships) = algo.sn.parts();
        Checkpoint {
            config: algo.config,
            graph: GraphFingerprint::of(algo.graph()),
            phase: algo.phase,
            phase_initialized: algo.phase_initialized,
            draw_cursor: algo.draw_cursor as u64,
            work_cursor: algo.work_cursor as u64,
            blocks: algo.blocks_executed(),
            cumulative_ns: algo.cumulative.as_nanos() as u64,
            unions: algo.unions,
            states: algo.states.raw_bytes(),
            nei: algo.nei.iter().map(|a| a.load(Ordering::Acquire)).collect(),
            sn_nodes: nodes.to_vec(),
            memberships: memberships.to_vec(),
            dsu_roots: (0..nodes.len() as u32).map(|s| algo.sn_root(s)).collect(),
            noise: algo.noise_list.clone(),
            work: algo.work.clone(),
            work_aux: algo.work_aux.clone(),
        }
    }

    /// SCAN parameters the run was started with.
    pub fn params(&self) -> ScanParams {
        self.config.params
    }

    /// The captured configuration; `threads == 0` keeps the checkpointed
    /// thread count, any other value overrides it (thread count does not
    /// affect the clustering, only the schedule).
    pub fn config(&self, threads: usize) -> AnyScanConfig {
        let mut config = self.config;
        if threads > 0 {
            config.threads = threads;
        }
        config
    }

    /// Phase the run was in when captured.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Block iterations the captured run had executed.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    // ---- serialization ----------------------------------------------------

    /// Serializes to the `ASCK` v2 byte image (checksum trailer included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64 + self.states.len() * 8);
        framing::put_header(&mut buf, MAGIC, VERSION);

        // Config fingerprint.
        let c = &self.config;
        buf.put_f64_le(c.params.epsilon);
        buf.put_u64_le(c.params.mu as u64);
        buf.put_u64_le(c.alpha as u64);
        buf.put_u64_le(c.beta as u64);
        buf.put_u64_le(c.threads as u64);
        buf.put_u64_le(c.seed);
        let mut flags = 0u32;
        for (bit, on) in [
            c.optimizations,
            c.sort_step2,
            c.sort_step3,
            c.skip_step2,
            false, // bit 4: retired DSU selector
            c.edge_cache,
            c.resolve_roles,
        ]
        .into_iter()
        .enumerate()
        {
            if on {
                flags |= 1 << bit;
            }
        }
        // Bits 7–8: reorder-mode code.
        flags |= u32::from(c.reorder.code()) << 7;
        flags |= ALWAYS_ON_FLAGS;
        // Bits 11–12: sketch-mode code. v1 checkpoints have both zero,
        // which decodes as Off — how those runs were executed.
        flags |= u32::from(c.sketch.code()) << 11;
        buf.put_u32_le(flags);
        // v2 tuning tail. The sketch seed is deliberately absent: signatures
        // are rebuilt from the run seed above, so a resumed run provably
        // reconstructs the identical sketches.
        buf.put_u32_le(c.sketch_rows as u32);
        buf.put_u32_le(c.sketch_bits);
        buf.put_u32_le(c.hub_max_hubs.min(u32::MAX as usize) as u32);
        buf.put_u32_le(c.hub_min_degree.min(u32::MAX as usize) as u32);
        buf.put_u32_le(RETIRED_SLOT);

        // Graph fingerprint.
        buf.put_u64_le(self.graph.n);
        buf.put_u64_le(self.graph.arcs);
        buf.put_u64_le(self.graph.edges);
        buf.put_u64_le(self.graph.hash);

        // Progress.
        buf.put_slice(&[phase_code(self.phase), self.phase_initialized as u8]);
        buf.put_u64_le(self.draw_cursor);
        buf.put_u64_le(self.work_cursor);
        buf.put_u64_le(self.blocks);
        buf.put_u64_le(self.cumulative_ns);
        let after_step1 = self.phase != Phase::Summarize;
        buf.put_u64_le(self.unions.step1);
        buf.put_u64_le(self.unions.step2);
        buf.put_u64_le(self.unions.step3);
        buf.put_u64_le(if after_step1 { self.unions.step1 } else { 0 });

        // Vertex states and certified-neighbor counts.
        buf.put_u64_le(self.states.len() as u64);
        buf.put_slice(&self.states);
        framing::put_u32_array(&mut buf, &self.nei);

        // Super-nodes: reps, then member lists as CSR.
        buf.put_u64_le(self.sn_nodes.len() as u64);
        for node in &self.sn_nodes {
            buf.put_u32_le(node.rep);
        }
        put_csr(&mut buf, self.sn_nodes.iter().map(|n| n.members.as_slice()));

        // Memberships (SN_v) as CSR over all n vertices. Kept separate from
        // the member lists: Step 4 adoption attaches vertices to super-nodes
        // without extending any node's member list.
        put_csr(&mut buf, self.memberships.iter().map(Vec::as_slice));

        // DSU partition (canonical parent forest) between the retired tag,
        // find count and union total.
        buf.put_slice(&[after_step1 as u8]);
        buf.put_u32_le(self.dsu_roots.len() as u32);
        framing::put_u32_array(&mut buf, &self.dsu_roots);
        buf.put_u64_le(0);
        buf.put_u64_le(self.unions.total());

        // Noise list: vertices + their stored ε-neighborhoods as CSR.
        buf.put_u64_le(self.noise.len() as u64);
        for (v, _) in &self.noise {
            buf.put_u32_le(*v);
        }
        put_csr(&mut buf, self.noise.iter().map(|(_, nb)| nb.as_slice()));

        // Work lists.
        buf.put_u64_le(self.work.len() as u64);
        framing::put_u32_array(&mut buf, &self.work);
        buf.put_u64_le(self.work_aux.len() as u64);
        for a in &self.work_aux {
            buf.put_u64_le(a.map_or(AUX_NONE, |i| i as u64));
        }

        framing::put_checksum_trailer(&mut buf);
        buf.into()
    }

    /// Parses an `ASCK` byte image, verifying the checksum trailer and every
    /// structural bound. Corruption yields a typed error, never a panic.
    pub fn from_bytes(raw: Vec<u8>) -> Result<Checkpoint, AnyScanError> {
        framing::peek_version(&raw, MAGIC)?;
        let mut buf = framing::strip_checksum_trailer(raw)?;
        let version = framing::get_header_versioned(&mut buf, MAGIC, MIN_VERSION..=VERSION)?;

        // Config fingerprint.
        let epsilon = get_f64(&mut buf)?;
        if !epsilon.is_finite() || epsilon <= 0.0 || epsilon > 1.0 {
            return Err(corrupt(format!("epsilon {epsilon} outside (0, 1]")));
        }
        let mu = get_len(&mut buf, "mu")?;
        if mu == 0 {
            return Err(corrupt("mu must be at least 1"));
        }
        let alpha = get_len(&mut buf, "alpha")?;
        let beta = get_len(&mut buf, "beta")?;
        let threads = get_len(&mut buf, "threads")?;
        let seed = get_u64(&mut buf)?;
        let flags = get_u32(&mut buf)?;
        if alpha == 0 || beta == 0 || threads == 0 {
            return Err(corrupt("alpha, beta, and threads must be positive"));
        }
        let sketch_code = ((flags >> 11) & 0b11) as u8;
        let sketch = SketchMode::from_code(sketch_code)
            .ok_or_else(|| corrupt(format!("unknown sketch-mode code in flags {flags:#x}")))?;
        let defaults = AnyScanConfig::default();
        let (sketch_rows, sketch_bits, hub_max_hubs, hub_min_degree) = if version >= 2 {
            let tuning = (
                get_u32(&mut buf)? as usize,
                get_u32(&mut buf)?,
                get_u32(&mut buf)? as usize,
                get_u32(&mut buf)? as usize,
            );
            if get_u32(&mut buf)? == 0 {
                return Err(corrupt("retired tuning slot must be positive"));
            }
            tuning
        } else {
            (
                defaults.sketch_rows,
                defaults.sketch_bits,
                defaults.hub_max_hubs,
                defaults.hub_min_degree,
            )
        };
        if sketch_code != 0 {
            if sketch_rows == 0 || sketch_rows > sketch::MAX_ROWS {
                return Err(corrupt(format!(
                    "sketch rows {sketch_rows} outside 1..={}",
                    sketch::MAX_ROWS
                )));
            }
            if !sketch::VALID_BITS.contains(&sketch_bits) {
                return Err(corrupt(format!("invalid sketch bits {sketch_bits}")));
            }
        }
        let config = AnyScanConfig {
            params: ScanParams::new(epsilon, mu),
            alpha,
            beta,
            threads,
            seed,
            optimizations: flags & 1 != 0,
            sort_step2: flags & (1 << 1) != 0,
            sort_step3: flags & (1 << 2) != 0,
            skip_step2: flags & (1 << 3) != 0,
            edge_cache: flags & (1 << 5) != 0,
            resolve_roles: flags & (1 << 6) != 0,
            reorder: ReorderMode::from_code(((flags >> 7) & 0b11) as u8)
                .ok_or_else(|| corrupt(format!("unknown reorder code in flags {flags:#x}")))?,
            sketch,
            sketch_rows,
            sketch_bits,
            hub_max_hubs,
            hub_min_degree,
        };

        // Graph fingerprint.
        let graph = GraphFingerprint {
            n: get_u64(&mut buf)?,
            arcs: get_u64(&mut buf)?,
            edges: get_u64(&mut buf)?,
            hash: get_u64(&mut buf)?,
        };
        let n = usize::try_from(graph.n).map_err(|_| corrupt("graph size overflows usize"))?;

        // Progress.
        let phase = phase_from(get_u8(&mut buf)?)?;
        let phase_initialized = match get_u8(&mut buf)? {
            0 => false,
            1 => true,
            b => return Err(corrupt(format!("invalid phase_initialized byte {b}"))),
        };
        let draw_cursor = get_u64(&mut buf)?;
        let work_cursor = get_u64(&mut buf)?;
        let blocks = get_u64(&mut buf)?;
        let cumulative_ns = get_u64(&mut buf)?;
        let union_slots = UnionBreakdown {
            step1: get_u64(&mut buf)?,
            step2: get_u64(&mut buf)?,
            step3: get_u64(&mut buf)?,
        };
        let step1_base = get_u64(&mut buf)?;
        if draw_cursor > graph.n {
            return Err(corrupt(format!(
                "draw cursor {draw_cursor} past {} vertices",
                graph.n
            )));
        }

        // Vertex states and certified-neighbor counts.
        let states_len = get_len(&mut buf, "state table length")?;
        if states_len != n {
            return Err(corrupt(format!(
                "state table covers {states_len} vertices, graph has {n}"
            )));
        }
        framing::need(&buf, states_len)?;
        let mut states = vec![0u8; states_len];
        buf.copy_to_slice(&mut states);
        let nei = framing::get_u32_array(&mut buf, n)?;

        // Super-nodes.
        let sn_count = get_len(&mut buf, "super-node count")?;
        if sn_count > n {
            return Err(corrupt(format!("{sn_count} super-nodes for {n} vertices")));
        }
        let reps = framing::get_u32_array(&mut buf, sn_count)?;
        let member_lists = get_csr(&mut buf, sn_count, n as u32, "super-node members")?;
        let sn_nodes: Vec<SuperNode> = reps
            .into_iter()
            .zip(member_lists)
            .map(|(rep, members)| SuperNode { rep, members })
            .collect();
        for (id, node) in sn_nodes.iter().enumerate() {
            if node.rep as usize >= n {
                return Err(corrupt(format!(
                    "super-node {id}: representative {} out of range",
                    node.rep
                )));
            }
        }

        // Memberships.
        let memberships = get_csr(&mut buf, n, sn_count as u32, "memberships")?;

        // DSU.
        let tag = get_u8(&mut buf)?;
        if tag > 1 {
            return Err(corrupt(format!("invalid DSU tag {tag}")));
        }
        let dsu_len = get_u32(&mut buf)? as usize;
        if dsu_len != sn_count {
            return Err(corrupt(format!(
                "DSU tracks {dsu_len} elements, expected one per super-node ({sn_count})"
            )));
        }
        let dsu_roots = framing::get_u32_array(&mut buf, dsu_len)?;
        let _finds = get_u64(&mut buf)?;
        let unions = step_unions(phase, union_slots, get_u64(&mut buf)?, step1_base)?;

        // Noise list.
        let noise_count = get_len(&mut buf, "noise-list length")?;
        if noise_count > n {
            return Err(corrupt(format!(
                "noise list holds {noise_count} vertices, graph has {n}"
            )));
        }
        let noise_vertices = framing::get_u32_array(&mut buf, noise_count)?;
        for &v in &noise_vertices {
            if v as usize >= n {
                return Err(corrupt(format!("noise vertex {v} out of range")));
            }
        }
        let neighborhoods = get_csr(&mut buf, noise_count, n as u32, "noise neighborhoods")?;
        let noise: Vec<(VertexId, Vec<VertexId>)> =
            noise_vertices.into_iter().zip(neighborhoods).collect();

        // Work lists.
        let work_len = get_len(&mut buf, "work-list length")?;
        if work_len > n {
            return Err(corrupt(format!(
                "work list holds {work_len} entries, graph has {n} vertices"
            )));
        }
        let work = framing::get_u32_array(&mut buf, work_len)?;
        for &v in &work {
            if v as usize >= n {
                return Err(corrupt(format!("work vertex {v} out of range")));
            }
        }
        if work_cursor as usize > work_len {
            return Err(corrupt(format!(
                "work cursor {work_cursor} past work list of {work_len}"
            )));
        }
        let aux_len = get_len(&mut buf, "aux-list length")?;
        if aux_len != 0 && aux_len != work_len {
            return Err(corrupt(format!(
                "aux list length {aux_len} disagrees with work list {work_len}"
            )));
        }
        framing::need(&buf, aux_len * 8)?;
        let mut work_aux = Vec::with_capacity(aux_len);
        for i in 0..aux_len {
            let v = buf.get_u64_le();
            if v == AUX_NONE {
                work_aux.push(None);
            } else if (v as usize) < noise_count {
                work_aux.push(Some(v as usize));
            } else {
                return Err(corrupt(format!(
                    "aux entry {i}: noise index {v} out of range"
                )));
            }
        }

        if buf.remaining() != 0 {
            return Err(corrupt(format!(
                "{} trailing bytes after checkpoint payload",
                buf.remaining()
            )));
        }

        Ok(Checkpoint {
            config,
            graph,
            phase,
            phase_initialized,
            draw_cursor,
            work_cursor,
            blocks,
            cumulative_ns,
            unions,
            states,
            nei,
            sn_nodes,
            memberships,
            dsu_roots,
            noise,
            work,
            work_aux,
        })
    }

    /// Serializes into `writer` (the full byte image, trailer included).
    pub fn write_to<W: std::io::Write>(&self, writer: &mut W) -> Result<(), AnyScanError> {
        writer
            .write_all(&self.to_bytes())
            .map_err(|e| AnyScanError::io("writing checkpoint", e))
    }

    /// Reads a checkpoint from `reader` (consumes it to EOF).
    pub fn read_from<R: std::io::Read>(reader: &mut R) -> Result<Checkpoint, AnyScanError> {
        let mut raw = Vec::new();
        reader
            .read_to_end(&mut raw)
            .map_err(|e| AnyScanError::io("reading checkpoint", e))?;
        Checkpoint::from_bytes(raw)
    }

    /// Writes the checkpoint to `path` atomically: temp file in the same
    /// directory, `fsync`, rename. An existing checkpoint at `path` survives
    /// any crash mid-write.
    pub fn save(&self, path: &Path) -> Result<(), AnyScanError> {
        let ctx = |what: &str| format!("{what} checkpoint {}", path.display());
        anyscan_faults::inject_io("checkpoint::write")
            .map_err(|e| AnyScanError::io(ctx("writing"), e))?;
        let mut bytes = self.to_bytes();
        anyscan_faults::inject_write("checkpoint::write", &mut bytes)
            .map_err(|e| AnyScanError::io(ctx("writing"), e))?;

        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)
        })();
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            return Err(AnyScanError::io(ctx("writing"), e));
        }
        // Make the rename itself durable where the platform allows it.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads and verifies a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, AnyScanError> {
        let ctx = format!("reading checkpoint {}", path.display());
        anyscan_faults::inject_io("checkpoint::read")
            .map_err(|e| AnyScanError::io(ctx.clone(), e))?;
        let raw = std::fs::read(path).map_err(|e| AnyScanError::io(ctx, e))?;
        Checkpoint::from_bytes(raw)
    }

    // ---- restore ----------------------------------------------------------

    /// Rebuilds a runnable [`AnyScan`] over `g` from this checkpoint.
    /// `threads == 0` keeps the checkpointed thread count. Fails with
    /// [`ErrorKind::Checkpoint`] when `g` is not the graph the checkpoint
    /// was taken against.
    pub fn restore<'g>(
        &self,
        g: &'g CsrGraph,
        threads: usize,
    ) -> Result<AnyScan<'g>, AnyScanError> {
        let actual = GraphFingerprint::of(g);
        if actual != self.graph {
            return Err(AnyScanError::new(
                ErrorKind::Checkpoint,
                format!(
                    "graph mismatch: checkpoint taken against |V|={} arcs={} hash={:#018x}, \
                     given |V|={} arcs={} hash={:#018x}",
                    self.graph.n,
                    self.graph.arcs,
                    self.graph.hash,
                    actual.n,
                    actual.arcs,
                    actual.hash
                ),
            ));
        }
        let n = g.num_vertices();
        for (v, sns) in self.memberships.iter().enumerate() {
            for &snid in sns {
                if snid as usize >= self.sn_nodes.len() {
                    return Err(AnyScanError::new(
                        ErrorKind::Checkpoint,
                        format!("vertex {v}: membership in unknown super-node {snid}"),
                    ));
                }
            }
        }

        let mut algo = AnyScan::new(g, self.config(threads));
        algo.states = StateTable::from_raw(self.states.clone())
            .map_err(|m| AnyScanError::new(ErrorKind::Checkpoint, m))?;
        algo.nei = self.nei.iter().map(|&v| AtomicU32::new(v)).collect();
        algo.sn = SuperNodes::from_parts(self.sn_nodes.clone(), self.memberships.clone());

        algo.dsu = AtomicDsu::from_roots(n, &self.dsu_roots)
            .map_err(|m| AnyScanError::new(ErrorKind::Checkpoint, m))?;

        algo.noise_list = self.noise.clone();
        algo.work = self.work.clone();
        algo.work_aux = self.work_aux.clone();
        algo.work_cursor = self.work_cursor as usize;
        algo.draw_cursor = (self.draw_cursor as usize).min(n);
        algo.phase = self.phase;
        algo.phase_initialized = self.phase_initialized;
        algo.iteration_base = self.blocks as usize;
        algo.cumulative = Duration::from_nanos(self.cumulative_ns);
        algo.unions = self.unions;
        Ok(algo)
    }

    /// [`restore`](Self::restore) with telemetry attached to the resumed run.
    pub fn restore_with_telemetry<'g>(
        &self,
        g: &'g CsrGraph,
        threads: usize,
        telemetry: Telemetry,
    ) -> Result<AnyScan<'g>, AnyScanError> {
        Ok(self.restore(g, threads)?.with_telemetry(telemetry))
    }
}

fn phase_code(p: Phase) -> u8 {
    match p {
        Phase::Summarize => 0,
        Phase::MergeStrong => 1,
        Phase::MergeWeak => 2,
        Phase::Borders => 3,
        Phase::ResolveRoles => 4,
        Phase::Done => 5,
    }
}

fn phase_from(code: u8) -> Result<Phase, AnyScanError> {
    Ok(match code {
        0 => Phase::Summarize,
        1 => Phase::MergeStrong,
        2 => Phase::MergeWeak,
        3 => Phase::Borders,
        4 => Phase::ResolveRoles,
        5 => Phase::Done,
        b => return Err(corrupt(format!("invalid phase discriminant {b}"))),
    })
}

fn corrupt(message: impl Into<String>) -> AnyScanError {
    AnyScanError::new(ErrorKind::Corrupt, message)
}

/// Writes ragged u32 lists as CSR: offsets (count+1, u64), then the flat
/// concatenation.
fn put_csr<'a>(buf: &mut BytesMut, lists: impl Iterator<Item = &'a [u32]> + Clone) {
    let mut offset = 0u64;
    buf.put_u64_le(offset);
    for list in lists.clone() {
        offset += list.len() as u64;
        buf.put_u64_le(offset);
    }
    for list in lists {
        framing::put_u32_array(buf, list);
    }
}

/// Reads `count` ragged lists written by [`put_csr`], bounding every id by
/// `id_bound`.
fn get_csr(
    buf: &mut Bytes,
    count: usize,
    id_bound: u32,
    what: &str,
) -> Result<Vec<Vec<u32>>, AnyScanError> {
    let offsets = framing::get_offsets(buf, count)?;
    let total = *offsets.last().expect("count + 1 >= 1 offsets");
    framing::need(buf, total.saturating_mul(4))?;
    framing::check_offsets(&offsets, total, what)?;
    let flat = framing::get_u32_array(buf, total)?;
    for &id in &flat {
        if id >= id_bound {
            return Err(corrupt(format!(
                "{what}: id {id} out of range (< {id_bound})"
            )));
        }
    }
    Ok(offsets
        .windows(2)
        .map(|w| flat[w[0]..w[1]].to_vec())
        .collect())
}

/// Scalar readers with truncation checks (the raw `Buf` getters panic on
/// underflow).
fn get_u8(buf: &mut Bytes) -> Result<u8, AnyScanError> {
    framing::need(buf, 1)?;
    let mut b = [0u8; 1];
    buf.copy_to_slice(&mut b);
    Ok(b[0])
}

fn get_u32(buf: &mut Bytes) -> Result<u32, AnyScanError> {
    framing::need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, AnyScanError> {
    framing::need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn get_f64(buf: &mut Bytes) -> Result<f64, AnyScanError> {
    framing::need(buf, 8)?;
    Ok(buf.get_f64_le())
}

/// Reads a u64 that must fit a usize-indexed structure.
fn get_len(buf: &mut Bytes, what: &str) -> Result<usize, AnyScanError> {
    let v = get_u64(buf)?;
    usize::try_from(v).map_err(|_| corrupt(format!("{what} {v} overflows usize")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::GraphBuilder;

    fn toy_graph() -> CsrGraph {
        GraphBuilder::from_unweighted_edges(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        .unwrap()
    }

    fn toy_config() -> AnyScanConfig {
        AnyScanConfig::new(ScanParams::new(0.7, 3)).with_block_size(2)
    }

    #[test]
    fn roundtrips_at_every_block_boundary() {
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        loop {
            let ck = algo.checkpoint();
            let bytes = ck.to_bytes();
            let back = Checkpoint::from_bytes(bytes).expect("roundtrip parses");
            assert_eq!(back.phase(), algo.phase());
            assert_eq!(back.blocks(), algo.blocks_executed());

            // The restored run carries the union counts so far and must
            // finish to the same clustering.
            let mut resumed = back.restore(&g, 0).expect("restore");
            assert_eq!(resumed.union_breakdown(), algo.union_breakdown());
            let mut expected = {
                let mut fresh = AnyScan::new(&g, toy_config());
                fresh.run()
            };
            let mut got = resumed.run();
            got.canonicalize();
            expected.canonicalize();
            assert_eq!(got.labels, expected.labels, "resume diverged");
            assert_eq!(got.roles, expected.roles, "roles diverged");

            if algo.phase() == Phase::Done {
                break;
            }
            algo.step();
        }
    }

    #[test]
    fn rejects_wrong_graph() {
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        algo.step();
        let ck = algo.checkpoint();
        let other = GraphBuilder::from_unweighted_edges(6, vec![(0, 1), (2, 3)]).unwrap();
        match ck.restore(&other, 0) {
            Err(err) => assert_eq!(err.kind(), ErrorKind::Checkpoint),
            Ok(_) => panic!("fingerprint must mismatch"),
        }
    }

    /// A DSU root out of range, or one naming an element that is not a
    /// root, fails the restore with a typed error, in Step 1 and after it.
    #[test]
    fn corrupt_dsu_roots_fail_the_restore() {
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        let mut phases = Vec::new();
        while algo.phase() != Phase::Done {
            let ck = algo.checkpoint();
            let len = ck.dsu_roots.len() as u32;
            if len >= 2 {
                phases.push(algo.phase());
                // Element 0's root out of range; then 0 and 1 naming each
                // other, so neither names a root.
                for first_two in [[len, 1], [1, 0]] {
                    let mut bad = ck.clone();
                    bad.dsu_roots[..2].copy_from_slice(&first_two);
                    let back = Checkpoint::from_bytes(bad.to_bytes()).expect("parses");
                    match back.restore(&g, 0) {
                        Err(err) => assert_eq!(err.kind(), ErrorKind::Checkpoint),
                        Ok(_) => panic!("corrupt roots restored in {:?}", algo.phase()),
                    }
                }
            }
            algo.step();
        }
        assert!(phases.contains(&Phase::Summarize), "{phases:?}");
        assert!(phases.iter().any(|&p| p != Phase::Summarize), "{phases:?}");
    }

    #[test]
    fn save_is_atomic_and_load_verifies() {
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        algo.step();
        let ck = algo.checkpoint();

        let dir = std::env::temp_dir().join("anyscan-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.asck");
        ck.save(&path).expect("save");
        assert!(!path.with_extension("asck.tmp").exists());
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back.blocks(), ck.blocks());

        // Flip one byte: the checksum must catch it.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        assert!(
            Checkpoint::from_bytes(raw).is_err(),
            "corruption must be detected"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Byte offset of the v2 five-`u32` tuning tail: header (magic + version)
    /// plus ε f64, four u64 block params, the seed u64, and the flags u32.
    const TUNING_TAIL_AT: usize = 8 + 8 + 8 * 4 + 8 + 4;

    /// An image without its checksum trailer, ready for hand edits.
    fn body_of(raw: Vec<u8>) -> Vec<u8> {
        framing::strip_checksum_trailer(raw)
            .unwrap()
            .chunk()
            .to_vec()
    }

    /// Re-stamps the checksum trailer over a hand-edited body.
    fn reframe(body: &[u8]) -> Vec<u8> {
        let mut framed = BytesMut::new();
        framed.put_slice(body);
        framing::put_checksum_trailer(&mut framed);
        framed.into()
    }

    #[test]
    fn v2_roundtrips_sketch_and_tuning_config() {
        let g = toy_graph();
        let config = toy_config()
            .with_sketch(SketchMode::Approx)
            .with_sketch_params(64, 4)
            .with_hub_params(32, 8);
        let mut algo = AnyScan::new(&g, config);
        algo.step();
        let back = Checkpoint::from_bytes(algo.checkpoint().to_bytes()).expect("v2 parses");
        let c = back.config(0);
        assert_eq!(c.sketch, SketchMode::Approx);
        assert_eq!((c.sketch_rows, c.sketch_bits), (64, 4));
        assert_eq!((c.hub_max_hubs, c.hub_min_degree), (32, 8));

        // Resume through the sketch-deciding kernel: the rebuilt signatures
        // are identical, so the run finishes as an uninterrupted one does.
        let mut resumed = back.restore(&g, 0).expect("restore").run();
        let mut expected = AnyScan::new(&g, config).run();
        resumed.canonicalize();
        expected.canonicalize();
        assert_eq!(resumed.labels, expected.labels);
    }

    #[test]
    fn v1_image_decodes_with_default_tuning() {
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        algo.step();
        let v2 = algo.checkpoint().to_bytes();

        // Hand-downgrade: drop the tuning tail, rewrite the version word,
        // and re-stamp the checksum trailer.
        let mut v1 = body_of(v2);
        v1.drain(TUNING_TAIL_AT..TUNING_TAIL_AT + 20);
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());

        let back = Checkpoint::from_bytes(reframe(&v1)).expect("v1 parses");
        let defaults = AnyScanConfig::default();
        let c = back.config(0);
        assert_eq!(c.sketch, SketchMode::Off);
        assert_eq!(c.sketch_rows, defaults.sketch_rows);
        assert_eq!(c.sketch_bits, defaults.sketch_bits);
        assert_eq!(c.hub_max_hubs, defaults.hub_max_hubs);
        assert_eq!(c.hub_min_degree, defaults.hub_min_degree);
        assert!(back.restore(&g, 0).is_ok(), "v1 image must restore");
    }

    /// Flags word of a default run's image: optimizations, both sorts,
    /// edge cache and role resolution (bits 0–2, 5, 6) plus the two
    /// always-on bits 9 and 10 — the same word the three-path driver wrote.
    const DEFAULT_FLAGS: u32 = 0b110_0110_0111;

    /// The flags word sits right before the tuning tail.
    const FLAGS_AT: usize = TUNING_TAIL_AT - 4;

    fn flags_of(raw: &[u8]) -> u32 {
        u32::from_le_bytes(raw[FLAGS_AT..FLAGS_AT + 4].try_into().unwrap())
    }

    /// Rewrites the flags word of an image and re-stamps the trailer.
    fn with_flags(raw: Vec<u8>, edit: impl Fn(u32) -> u32) -> Vec<u8> {
        let mut body = body_of(raw);
        let flags = edit(flags_of(&body));
        body[FLAGS_AT..FLAGS_AT + 4].copy_from_slice(&flags.to_le_bytes());
        reframe(&body)
    }

    /// Edits the flags of the image taken at every block boundary of a
    /// default run; each edited image must restore and finish with the
    /// labels and roles of the uninterrupted run.
    fn assert_edited_images_finish_like_default(edit: impl Fn(u32) -> u32) {
        let g = toy_graph();
        let mut expected = AnyScan::new(&g, toy_config()).run();
        expected.canonicalize();
        let mut algo = AnyScan::new(&g, toy_config());
        loop {
            let raw = with_flags(algo.checkpoint().to_bytes(), &edit);
            let back = Checkpoint::from_bytes(raw).expect("edited image parses");
            assert_eq!(back.config(0).sketch, SketchMode::Off);
            let mut got = back.restore(&g, 0).expect("restore").run();
            got.canonicalize();
            assert_eq!(got.labels, expected.labels, "labels diverged");
            assert_eq!(got.roles, expected.roles, "roles diverged");
            if algo.phase() == Phase::Done {
                break;
            }
            algo.step();
        }
    }

    #[test]
    fn default_image_sets_the_same_flag_bits_as_before() {
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        algo.step();
        assert_eq!(flags_of(&algo.checkpoint().to_bytes()), DEFAULT_FLAGS);
    }

    #[test]
    fn locked_dsu_image_restores_exactly() {
        assert_edited_images_finish_like_default(|f| f | (1 << 4));
    }

    #[test]
    fn image_without_hub_and_batched_bits_restores_exactly() {
        assert_edited_images_finish_like_default(|f| f & !ALWAYS_ON_FLAGS);
    }

    #[test]
    fn assist_sketch_code_restores_as_off() {
        assert_edited_images_finish_like_default(|f| f | (1 << 11));

        // Code 1 still carries a signature size that must be valid.
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        algo.step();
        let mut body = body_of(with_flags(algo.checkpoint().to_bytes(), |f| f | (1 << 11)));
        body[TUNING_TAIL_AT..TUNING_TAIL_AT + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = Checkpoint::from_bytes(reframe(&body)).expect_err("zero rows");
        assert_eq!(err.kind(), ErrorKind::Corrupt);
        assert!(err.to_string().contains("sketch rows"), "typed message");
    }

    #[test]
    fn unknown_sketch_code_is_rejected() {
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        algo.step();
        // Force bits 11–12 to the unassigned code 0b11.
        let raw = with_flags(algo.checkpoint().to_bytes(), |f| f | (0b11 << 11));
        let err = Checkpoint::from_bytes(raw).expect_err("bad code");
        assert_eq!(err.kind(), ErrorKind::Corrupt);
        assert!(err.to_string().contains("sketch-mode"), "typed message");
    }

    #[test]
    fn retired_slot_is_written_as_sixteen_and_zero_is_corrupt() {
        let g = toy_graph();
        let mut algo = AnyScan::new(&g, toy_config());
        algo.step();
        let mut bytes = body_of(algo.checkpoint().to_bytes());
        let slot_at = TUNING_TAIL_AT + 16;
        let slot = u32::from_le_bytes(bytes[slot_at..slot_at + 4].try_into().unwrap());
        assert_eq!(slot, RETIRED_SLOT);
        assert_eq!(
            RETIRED_SLOT, 16,
            "the value every pre-removal default run wrote"
        );

        // Any positive value (say, an image written with a non-default
        // ratio before the knob was removed) is ignored.
        bytes[slot_at..slot_at + 4].copy_from_slice(&4u32.to_le_bytes());
        let back = Checkpoint::from_bytes(reframe(&bytes)).expect("positive slot parses");
        assert!(back.restore(&g, 0).is_ok());
        // Zero was never written and stays corrupt.
        bytes[slot_at..slot_at + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = Checkpoint::from_bytes(reframe(&bytes)).expect_err("zero slot");
        assert_eq!(err.kind(), ErrorKind::Corrupt);
        assert!(
            err.to_string().contains("retired tuning slot"),
            "typed message"
        );
    }
}
