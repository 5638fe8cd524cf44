//! The checker itself.

use std::collections::{HashMap, HashSet};
use std::fmt;

use bristle_cell::{CellId, Library, Shape, ShapeGeom};
use bristle_geom::{covered_by, Layer, QueryScratch, Rect, RectIndex};

use crate::rules::{RuleKind, RuleSet};

/// One design-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule was broken.
    pub rule: RuleKind,
    /// Where (bounding box of the offending geometry).
    pub at: Rect,
    /// Cell in which the violation was detected.
    pub cell: String,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} at {}: {}", self.cell, self.rule, self.at, self.message)
    }
}

/// The outcome of a DRC run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All violations found.
    pub violations: Vec<Violation>,
    /// Number of candidate shape pairs examined by the same-layer and
    /// poly–diffusion spacing rules: how much searching the run did.
    pub checked_pairs: u64,
}

impl Report {
    /// True when no rule was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean ({} pairs examined)", self.checked_pairs)
        } else {
            writeln!(f, "{} violations:", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Tagged rectangle soup for one layer.
struct LayerSoup {
    rects: Vec<(Rect, u32)>,
    index: RectIndex,
}

struct Soup {
    layers: HashMap<Layer, LayerSoup>,
}

impl Soup {
    fn build<'a>(shapes: impl Iterator<Item = (&'a Shape, u32)>) -> Soup {
        let mut per_layer: HashMap<Layer, Vec<(Rect, u32)>> = HashMap::new();
        for (shape, group) in shapes {
            let entry = per_layer.entry(shape.layer).or_default();
            for r in shape.to_rects() {
                if !r.is_degenerate() {
                    entry.push((r, group));
                }
            }
        }
        let layers = per_layer
            .into_iter()
            .map(|(layer, rects)| {
                let index =
                    RectIndex::bulk_build(rects.iter().enumerate().map(|(i, &(r, _))| (i, r)));
                (layer, LayerSoup { rects, index })
            })
            .collect();
        Soup { layers }
    }

    fn layer(&self, layer: Layer) -> Option<&LayerSoup> {
        self.layers.get(&layer)
    }

    /// The rects of one layer, untagged.
    fn rects(&self, layer: Layer) -> impl Iterator<Item = Rect> + '_ {
        self.layer(layer).into_iter().flat_map(|l| l.rects.iter().map(|&(r, _)| r))
    }
}

/// Window queries against a [`Soup`]'s per-layer indexes. Device rules
/// ask small questions ("does poly cover this strip?") of the whole
/// chip, so each one looks only at the rects touching its window.
struct Probe<'a> {
    soup: &'a Soup,
    scratch: QueryScratch,
    hits: Vec<Rect>,
}

impl<'a> Probe<'a> {
    fn new(soup: &'a Soup) -> Probe<'a> {
        Probe {
            soup,
            scratch: QueryScratch::new(),
            hits: Vec::new(),
        }
    }

    /// The rects of `layer` that touch `window`.
    fn near(&mut self, layer: Layer, window: Rect) -> &[Rect] {
        self.hits.clear();
        if let Some(ls) = self.soup.layer(layer) {
            let hits = &mut self.hits;
            ls.index.query_with(window, &mut self.scratch, |_, r| hits.push(r));
        }
        &self.hits
    }

    /// True when `layer` covers `window`. A rect that does not touch the
    /// window covers none of it, so the hits decide exactly as the whole
    /// layer would.
    fn covers(&mut self, layer: Layer, window: Rect) -> bool {
        covered_by(window, self.near(layer, window))
    }
}

/// Group id used for a cell's own (non-instanced) shapes.
const OWN_GROUP: u32 = u32::MAX;

fn check_shape_widths<'a>(
    cell: &str,
    shapes: impl Iterator<Item = &'a Shape>,
    rules: &RuleSet,
    out: &mut Report,
) {
    for s in shapes {
        let Some(min) = rules.min_width(s.layer) else {
            continue;
        };
        let too_thin = match &s.geom {
            ShapeGeom::Box(r) => r.width().min(r.height()) < min,
            ShapeGeom::Wire(p) => p.width() < min,
            // Polygons are rare (pads); approximate with the bbox.
            ShapeGeom::Poly(p) => {
                let b = p.bbox();
                b.width().min(b.height()) < min
            }
        };
        if too_thin {
            out.violations.push(Violation {
                rule: RuleKind::MinWidth(s.layer),
                at: s.bbox(),
                cell: cell.to_owned(),
                message: format!("{s} narrower than {min}λ"),
            });
        }
    }
}

fn check_spacing(
    cell: &str,
    soup: &Soup,
    rules: &RuleSet,
    skip_same_group: bool,
    out: &mut Report,
) {
    let mut scratch = QueryScratch::new();
    // Iterate layers in a fixed order so reports are deterministic.
    let mut layers: Vec<(&Layer, &LayerSoup)> = soup.layers.iter().collect();
    layers.sort_by_key(|&(l, _)| *l);
    for (&layer, ls) in layers {
        let Some(space) = rules.min_spacing(layer) else {
            continue;
        };
        for (i, &(r, group)) in ls.rects.iter().enumerate() {
            ls.index.query_with(r.inflate(space), &mut scratch, |j, other| {
                if j <= i {
                    return;
                }
                let other_group = ls.rects[j].1;
                if skip_same_group && group == other_group && group != OWN_GROUP {
                    return;
                }
                out.checked_pairs += 1;
                let gap = r.spacing(&other);
                if gap > 0 && gap < space {
                    out.violations.push(Violation {
                        rule: RuleKind::MinSpacing(layer),
                        at: r.union(&other),
                        cell: cell.to_owned(),
                        message: format!("gap {gap}λ < {space}λ"),
                    });
                }
            });
        }
    }
}

/// Transistor, poly–diffusion spacing, contact and implant rules. These
/// judge the artwork as fabricated, so they run on a flat soup.
fn check_devices(cell: &str, soup: &Soup, rules: &RuleSet, out: &mut Report) {
    let mut probe = Probe::new(soup);
    check_transistors(cell, &mut probe, rules, out);
    check_poly_diff_spacing(cell, &mut probe, rules, out);
    check_contacts(cell, &mut probe, rules, out);
}

/// Poly∩diffusion overlap regions that are not covered by a buried
/// contact: the transistor gates.
fn gate_regions(probe: &mut Probe<'_>) -> Vec<Rect> {
    let mut gates = Vec::new();
    let soup = probe.soup;
    let Some(diff) = soup.layer(Layer::Diffusion) else {
        return gates;
    };
    let mut scratch = QueryScratch::new();
    for p in soup.rects(Layer::Poly) {
        diff.index.query_with(p, &mut scratch, |_, d| {
            gates.extend(p.intersection(&d));
        });
    }
    // Merge duplicates (identical regions found via different rect pairs).
    gates.sort_unstable();
    gates.dedup();
    gates.retain(|&g| !probe.covers(Layer::Buried, g));
    gates
}

fn check_transistors(cell: &str, probe: &mut Probe<'_>, rules: &RuleSet, out: &mut Report) {
    let oh = rules.gate_overhang;
    let ext = rules.sd_extension;
    let m = rules.implant_margin;
    for g in gate_regions(probe) {
        // Configuration A: poly runs horizontally (overhangs left/right),
        // diffusion runs vertically (extends below/above).
        let poly_a = probe.covers(Layer::Poly, Rect::new(g.x0 - oh, g.y0, g.x0, g.y1))
            && probe.covers(Layer::Poly, Rect::new(g.x1, g.y0, g.x1 + oh, g.y1));
        let diff_a = probe.covers(Layer::Diffusion, Rect::new(g.x0, g.y0 - ext, g.x1, g.y0))
            && probe.covers(Layer::Diffusion, Rect::new(g.x0, g.y1, g.x1, g.y1 + ext));
        // Configuration B: rotated 90°.
        let poly_b = probe.covers(Layer::Poly, Rect::new(g.x0, g.y0 - oh, g.x1, g.y0))
            && probe.covers(Layer::Poly, Rect::new(g.x0, g.y1, g.x1, g.y1 + oh));
        let diff_b = probe.covers(Layer::Diffusion, Rect::new(g.x0 - ext, g.y0, g.x0, g.y1))
            && probe.covers(Layer::Diffusion, Rect::new(g.x1, g.y0, g.x1 + ext, g.y1));
        if !(poly_a && diff_a || poly_b && diff_b) {
            // Attribute the failure: overhang if neither poly side pair
            // works, else source/drain extension.
            let rule = if poly_a || poly_b {
                RuleKind::SourceDrainExtension
            } else {
                RuleKind::GateOverhang
            };
            out.violations.push(Violation {
                rule,
                at: g,
                cell: cell.to_owned(),
                message: "malformed transistor crossing".into(),
            });
        }
        // Implant: all-or-nothing with margin. Every implant rect that
        // overlaps the gate or lies within `m` of it touches `window`.
        let window = g.inflate(m);
        let implant = probe.near(Layer::Implant, window);
        if implant.iter().any(|i| i.overlaps(&g)) {
            if !covered_by(window, implant) {
                out.violations.push(Violation {
                    rule: RuleKind::ImplantCoverage,
                    at: g,
                    cell: cell.to_owned(),
                    message: format!("implant does not surround gate by {m}λ"),
                });
            }
        } else if implant.iter().any(|i| i.spacing(&g) < m) {
            out.violations.push(Violation {
                rule: RuleKind::ImplantCoverage,
                at: g,
                cell: cell.to_owned(),
                message: format!("implant within {m}λ of an enhancement gate"),
            });
        }
    }
}

fn check_poly_diff_spacing(cell: &str, probe: &mut Probe<'_>, rules: &RuleSet, out: &mut Report) {
    let soup = probe.soup;
    let Some(diff) = soup.layer(Layer::Diffusion) else {
        return;
    };
    let s = rules.space_poly_diff;
    let mut scratch = QueryScratch::new();
    let mut near = Vec::new();
    for p in soup.rects(Layer::Poly) {
        near.clear();
        diff.index.query_with(p.inflate(s), &mut scratch, |_, d| near.push(d));
        for d in &near {
            out.checked_pairs += 1;
            if p.overlaps(d) {
                continue; // transistor or buried junction: handled elsewhere
            }
            let gap = p.spacing(d);
            if gap < s {
                // A butting junction is fine when a buried contact spans it.
                let junction = p.union(d);
                if probe.near(Layer::Buried, junction).iter().any(|b| b.overlaps(&junction)) {
                    continue;
                }
                out.violations.push(Violation {
                    rule: RuleKind::PolyDiffSpacing,
                    at: junction,
                    cell: cell.to_owned(),
                    message: format!("poly–diffusion gap {gap}λ < {s}λ"),
                });
            }
        }
    }
}

fn check_contacts(cell: &str, probe: &mut Probe<'_>, rules: &RuleSet, out: &mut Report) {
    let soup = probe.soup;
    let e = rules.contact_enclosure;
    let size = rules.contact_size;
    for c in soup.rects(Layer::Contact) {
        if c.width() != size || c.height() != size {
            out.violations.push(Violation {
                rule: RuleKind::ContactSize,
                at: c,
                cell: cell.to_owned(),
                message: format!("contact {}x{}λ, must be {size}x{size}λ", c.width(), c.height()),
            });
        }
        let landing = c.inflate(e);
        if !probe.covers(Layer::Metal, landing) {
            out.violations.push(Violation {
                rule: RuleKind::ContactMetalEnclosure,
                at: c,
                cell: cell.to_owned(),
                message: format!("metal does not enclose contact by {e}λ"),
            });
        }
        if !probe.covers(Layer::Poly, landing) && !probe.covers(Layer::Diffusion, landing) {
            out.violations.push(Violation {
                rule: RuleKind::ContactLandingEnclosure,
                at: c,
                cell: cell.to_owned(),
                message: format!("neither poly nor diffusion encloses contact by {e}λ"),
            });
        }
    }
    for b in soup.rects(Layer::Buried) {
        if !probe.covers(Layer::Poly, b) || !probe.covers(Layer::Diffusion, b) {
            out.violations.push(Violation {
                rule: RuleKind::BuriedEnclosure,
                at: b,
                cell: cell.to_owned(),
                message: "buried contact not covered by both poly and diffusion".into(),
            });
        }
    }
}

/// Checks a fully flattened cell hierarchy against `rules`.
///
/// Every rule runs on the complete artwork — the brute-force mode the
/// paper contrasts with per-cell checking, kept as the oracle for
/// [`check_hierarchical`]. The flattened view comes from the library's
/// memoized cache, so repeated checks re-use the geometry.
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`.
#[must_use]
pub fn check_flat(lib: &Library, top: CellId, rules: &RuleSet) -> Report {
    let flat = lib.flatten_shared(top);
    let name = lib.cell(top).name();
    let mut report = Report::default();
    check_shape_widths(name, flat.iter(), rules, &mut report);
    let soup = Soup::build(flat.iter().map(|s| (s, OWN_GROUP)));
    check_spacing(name, &soup, rules, false, &mut report);
    check_devices(name, &soup, rules, &mut report);
    report
}

/// Hierarchical DRC in the Bristle Blocks style.
///
/// Each distinct cell's own shapes get width and spacing checks
/// **once**; then every parent is checked for **inter-instance**
/// interactions only (spacing between geometry belonging to different
/// child instances, or between children and the parent's own shapes).
/// Intra-instance pairs are skipped — their cell was already checked.
///
/// With interface-standard abutment, the inter-instance work is confined
/// to narrow boundary bands, so `checked_pairs` is far below
/// [`check_flat`]'s.
///
/// Device rules (transistors, poly–diffusion spacing, contacts, implant)
/// judge the artwork as fabricated: they run once, on the flattened
/// `top`, and their violations are reported against `top`. A transistor
/// formed by poly in one instance crossing diffusion in another is
/// therefore checked like any other.
///
/// # Panics
///
/// Panics if `top` is not a cell of `lib`.
#[must_use]
pub fn check_hierarchical(lib: &Library, top: CellId, rules: &RuleSet) -> Report {
    let mut order: Vec<CellId> = Vec::new();
    collect(lib, top, &mut HashSet::new(), &mut order);
    let mut report = Report::default();
    for &id in &order {
        check_cell(lib, id, rules, &mut report);
    }
    let flat = lib.flatten_shared(top);
    let soup = Soup::build(flat.iter().map(|s| (s, OWN_GROUP)));
    check_devices(lib.cell(top).name(), &soup, rules, &mut report);
    // Sorted for a stable report; a violation found through several
    // rect pairs (same rule, place and cell) is reported once.
    report.violations.sort_by(|a, b| {
        (a.rule, a.at, &a.cell).cmp(&(b.rule, b.at, &b.cell))
    });
    report
        .violations
        .dedup_by(|a, b| a.rule == b.rule && a.at == b.at && a.cell == b.cell);
    report
}

/// One cell's widths and spacing: its own shapes in isolation, then
/// inter-instance interactions within this parent.
fn check_cell(lib: &Library, id: CellId, rules: &RuleSet, report: &mut Report) {
    let cell = lib.cell(id);
    // 1. The cell's *own* shapes; instance interiors are their own
    // cells' business.
    let own_shapes: Vec<(&Shape, u32)> =
        cell.shapes().iter().map(|s| (s, OWN_GROUP)).collect();
    check_shape_widths(cell.name(), cell.shapes().iter(), rules, report);
    check_spacing(cell.name(), &Soup::build(own_shapes.iter().copied()), rules, false, report);

    // 2. Inter-instance spacing within this parent. Children come from
    // the flatten cache — composed once per distinct cell, not once per
    // instance — and only their transforms differ per instance.
    if !cell.instances().is_empty() {
        let mut placed: Vec<(Shape, u32)> = Vec::new();
        for (gi, inst) in cell.instances().iter().enumerate() {
            let child = lib.flatten_shared(inst.cell);
            placed.reserve(child.len());
            for s in child.iter() {
                placed.push((s.transform(&inst.transform), gi as u32));
            }
        }
        let mut tagged = own_shapes;
        tagged.extend(placed.iter().map(|(s, g)| (s, *g)));
        check_spacing(cell.name(), &Soup::build(tagged.into_iter()), rules, true, report);
    }
}

fn collect(lib: &Library, id: CellId, seen: &mut HashSet<CellId>, order: &mut Vec<CellId>) {
    if !seen.insert(id) {
        return;
    }
    for inst in lib.cell(id).instances() {
        collect(lib, inst.cell, seen, order);
    }
    order.push(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_cell::Cell;
    use bristle_geom::{Point, Transform};

    fn lib_with(name: &str, shapes: Vec<Shape>) -> (Library, CellId) {
        let mut lib = Library::new("t");
        let mut c = Cell::new(name);
        for s in shapes {
            c.push_shape(s);
        }
        let id = lib.add_cell(c).unwrap();
        (lib, id)
    }

    fn rules() -> RuleSet {
        RuleSet::mead_conway()
    }

    /// A well-formed enhancement transistor: vertical diffusion 2λ wide,
    /// horizontal poly 2λ tall crossing it with 2λ overhang.
    fn good_transistor() -> Vec<Shape> {
        vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)),
            Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)),
        ]
    }

    #[test]
    fn clean_transistor_passes() {
        let (lib, id) = lib_with("t1", good_transistor());
        let r = check_flat(&lib, id, &rules());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn thin_metal_flagged() {
        let (lib, id) = lib_with(
            "m",
            vec![Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 10))],
        );
        let r = check_flat(&lib, id, &rules());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, RuleKind::MinWidth(Layer::Metal));
    }

    #[test]
    fn metal_spacing_flagged() {
        let (lib, id) = lib_with(
            "m",
            vec![
                Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)),
                Shape::rect(Layer::Metal, Rect::new(6, 0, 10, 4)), // 2λ gap < 3λ
            ],
        );
        let r = check_flat(&lib, id, &rules());
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::MinSpacing(Layer::Metal)));
    }

    #[test]
    fn touching_rects_are_fine() {
        let (lib, id) = lib_with(
            "m",
            vec![
                Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)),
                Shape::rect(Layer::Metal, Rect::new(4, 0, 8, 4)),
            ],
        );
        assert!(check_flat(&lib, id, &rules()).is_clean());
    }

    #[test]
    fn short_gate_overhang_flagged() {
        let (lib, id) = lib_with(
            "t",
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)),
                Shape::rect(Layer::Poly, Rect::new(-1, 0, 3, 2)), // only 1λ overhang
            ],
        );
        let r = check_flat(&lib, id, &rules());
        assert!(r.violations.iter().any(|v| v.rule == RuleKind::GateOverhang));
    }

    #[test]
    fn short_sd_extension_flagged() {
        let (lib, id) = lib_with(
            "t",
            vec![
                Shape::rect(Layer::Diffusion, Rect::new(0, -1, 2, 3)), // 1λ S/D
                Shape::rect(Layer::Poly, Rect::new(-2, 0, 4, 2)),
            ],
        );
        let r = check_flat(&lib, id, &rules());
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::SourceDrainExtension));
    }

    #[test]
    fn depletion_needs_full_implant() {
        let mut shapes = good_transistor();
        // Implant overlapping only half the gate.
        shapes.push(Shape::rect(Layer::Implant, Rect::new(-1, -1, 1, 3)));
        let (lib, id) = lib_with("t", shapes);
        let r = check_flat(&lib, id, &rules());
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::ImplantCoverage));
        // Full surround is clean.
        let mut shapes = good_transistor();
        shapes.push(Shape::rect(Layer::Implant, Rect::new(-1, -1, 3, 3)));
        let (lib2, id2) = lib_with("t", shapes);
        assert!(check_flat(&lib2, id2, &rules()).is_clean());
    }

    #[test]
    fn contact_rules() {
        // Good: 2×2 contact, metal and diff enclose by 1λ.
        let good = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 4)),
            Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)),
            Shape::rect(Layer::Contact, Rect::new(1, 1, 3, 3)),
        ];
        let (lib, id) = lib_with("c", good);
        let r = check_flat(&lib, id, &rules());
        assert!(r.is_clean(), "{r}");
        // Bad: metal too small.
        let bad = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 4)),
            Shape::rect(Layer::Metal, Rect::new(1, 1, 4, 4)),
            Shape::rect(Layer::Contact, Rect::new(1, 1, 3, 3)),
        ];
        let (lib2, id2) = lib_with("c", bad);
        let r2 = check_flat(&lib2, id2, &rules());
        assert!(r2
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::ContactMetalEnclosure));
    }

    #[test]
    fn buried_contact_allows_poly_diff_contact() {
        // Poly butting diffusion without buried: violation.
        let bad = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 4, 2)),
            Shape::rect(Layer::Poly, Rect::new(4, 0, 8, 2)),
        ];
        let (lib, id) = lib_with("b", bad);
        let r = check_flat(&lib, id, &rules());
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::PolyDiffSpacing));
        // Overlapping with buried covering the overlap: clean.
        let good = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 5, 2)),
            Shape::rect(Layer::Poly, Rect::new(3, 0, 8, 2)),
            Shape::rect(Layer::Buried, Rect::new(3, 0, 5, 2)),
        ];
        let (lib2, id2) = lib_with("b", good);
        let r2 = check_flat(&lib2, id2, &rules());
        assert!(r2.is_clean(), "{r2}");
    }

    #[test]
    fn hierarchical_matches_flat_on_abutting_instances() {
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        for s in good_transistor() {
            leaf.push_shape(s);
        }
        // Metal strip as the abutment feature.
        leaf.push_shape(Shape::rect(Layer::Metal, Rect::new(-2, -4, 4, -1)));
        let lid = lib.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.push_shape(Shape::rect(Layer::Metal, Rect::new(-2, 10, 4, 13)));
        let tid = lib.add_cell(top).unwrap();
        // A row of instances with proper clearance. The hierarchical win
        // appears once the leaf is instanced repeatedly: its interior is
        // checked once instead of once per instance.
        for i in 0..12 {
            lib.add_instance(
                tid,
                lid,
                format!("u{i}"),
                Transform::translate(Point::new(12 * i, 0)),
            )
            .unwrap();
        }
        let flat = check_flat(&lib, tid, &rules());
        let hier = check_hierarchical(&lib, tid, &rules());
        assert!(flat.is_clean(), "{flat}");
        assert!(hier.is_clean(), "{hier}");
        // Hierarchical examines fewer pairs.
        assert!(
            hier.checked_pairs <= flat.checked_pairs,
            "hier {} vs flat {}",
            hier.checked_pairs,
            flat.checked_pairs
        );
    }

    #[test]
    fn hierarchical_catches_glue_errors() {
        // Two clean leaves placed too close: only the parent-level check
        // can see it.
        let mut lib = Library::new("t");
        let mut leaf = Cell::new("leaf");
        leaf.push_shape(Shape::rect(Layer::Metal, Rect::new(0, 0, 4, 4)));
        let lid = lib.add_cell(leaf).unwrap();
        let top = Cell::new("top");
        let tid = lib.add_cell(top).unwrap();
        lib.add_instance(tid, lid, "u0", Transform::IDENTITY).unwrap();
        lib.add_instance(tid, lid, "u1", Transform::translate(Point::new(6, 0)))
            .unwrap(); // 2λ gap < 3λ
        let hier = check_hierarchical(&lib, tid, &rules());
        assert!(hier
            .violations
            .iter()
            .any(|v| v.rule == RuleKind::MinSpacing(Layer::Metal)));
    }

    #[test]
    fn contact_size_message_names_the_cut() {
        let shapes = vec![
            Shape::rect(Layer::Diffusion, Rect::new(0, 0, 5, 5)),
            Shape::rect(Layer::Metal, Rect::new(0, 0, 5, 5)),
            Shape::rect(Layer::Contact, Rect::new(1, 1, 4, 4)), // 3×3 cut
        ];
        let (lib, id) = lib_with("c", shapes);
        let r = check_flat(&lib, id, &rules());
        let v: Vec<&Violation> = r
            .violations
            .iter()
            .filter(|v| v.rule == RuleKind::ContactSize)
            .collect();
        assert_eq!(v.len(), 1, "{r}");
        assert_eq!(v[0].message, "contact 3x3λ, must be 2x2λ");
    }

    #[test]
    fn hierarchical_checks_transistors_across_instances() {
        // Poly in one instance crosses diffusion in a sibling with only
        // 1λ overhang; the parent owns no shapes. Neither cell holds a
        // transistor on its own, so only the assembled artwork shows it.
        let mut lib = Library::new("t");
        let mut poly = Cell::new("poly");
        poly.push_shape(Shape::rect(Layer::Poly, Rect::new(-1, 0, 3, 2)));
        let pid = lib.add_cell(poly).unwrap();
        let mut diff = Cell::new("diff");
        diff.push_shape(Shape::rect(Layer::Diffusion, Rect::new(0, -4, 2, 6)));
        let did = lib.add_cell(diff).unwrap();
        let tid = lib.add_cell(Cell::new("top")).unwrap();
        lib.add_instance(tid, did, "d", Transform::IDENTITY).unwrap();
        lib.add_instance(tid, pid, "p", Transform::IDENTITY).unwrap();
        let flat = check_flat(&lib, tid, &rules());
        let hier = check_hierarchical(&lib, tid, &rules());
        for r in [&flat, &hier] {
            assert!(
                r.violations.iter().any(|v| v.rule == RuleKind::GateOverhang),
                "{r}"
            );
        }
    }

    #[test]
    fn report_display() {
        let (lib, id) = lib_with(
            "m",
            vec![Shape::rect(Layer::Metal, Rect::new(0, 0, 2, 10))],
        );
        let r = check_flat(&lib, id, &rules());
        let text = r.to_string();
        assert!(text.contains("min-width(NM)"), "{text}");
    }
}
