//! Seeded randomized tests for the packing substrate.
//!
//! These pin down the soundness invariants every packer must uphold: no
//! overlap, in-bounds placement, size preservation, and agreement between
//! feasibility answers and actual packings. Inputs come from the
//! simulator's `SplitMix64` so every case replays from the seeds below.

use packing::shelf::pack_strip_ffdh;
use packing::{
    all_disjoint, fits_into, pack_into, pack_strip, FreeSpace, PackError, Rect, Size,
    StripWorkspace,
};
use tsch_sim::SplitMix64;

/// Items sized like HARP resource components: small widths and heights.
fn item(rng: &mut SplitMix64, max_w: u32) -> Size {
    Size::new(
        1 + rng.next_below(u64::from(max_w)) as u32,
        1 + rng.next_below(12) as u32,
    )
}

fn items(rng: &mut SplitMix64, max_w: u32, max_len: u64) -> Vec<Size> {
    let n = rng.next_below(max_len);
    (0..n).map(|_| item(rng, max_w)).collect()
}

fn check_strip_packing(items: &[Size], width: u32, packing: &packing::StripPacking) {
    assert_eq!(packing.placements().len(), items.len());
    for (item, rect) in items.iter().zip(packing.placements()) {
        assert_eq!(rect.size, *item, "size preserved");
        assert!(rect.right() <= width, "within width");
        assert!(rect.top() <= packing.height(), "within height");
    }
    assert!(all_disjoint(packing.placements()), "no overlaps");
    // Height is tight: some placement touches it (unless empty).
    if !items.is_empty() {
        let max_top = packing.placements().iter().map(Rect::top).max().unwrap();
        assert_eq!(packing.height(), max_top);
    }
}

#[test]
fn skyline_packing_is_sound() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5C_A1 ^ case);
        let width = 1 + rng.next_below(16) as u32;
        let items = items(&mut rng, width, 40);
        let packing = pack_strip(&items, width).unwrap();
        check_strip_packing(&items, width, &packing);
    }
}

#[test]
fn workspace_reuse_is_invisible() {
    // One workspace and one placement buffer through a whole sequence:
    // a 128-item pack, then 1-, 2- and 4-item packs (the sizes HARP
    // composes), strips of every width, and the three input errors in
    // between. Each call must answer what a fresh workspace answers — a
    // buffer read before it is reset would carry the 128-item pack over.
    let mut rng = SplitMix64::new(0x5EED_CA5E);
    let sized = |rng: &mut SplitMix64, n: usize, width: u32| -> Vec<Size> {
        (0..n).map(|_| item(rng, width)).collect()
    };
    let mut calls: Vec<(Vec<Size>, u32)> = Vec::new();
    for round in 0..24 {
        for n in [128, 1, 2, 4] {
            let width = 1 + rng.next_below(16) as u32;
            calls.push((sized(&mut rng, n, width), width));
        }
        let width = 1 + rng.next_below(16) as u32;
        calls.push(match round % 3 {
            0 => (vec![Size::new(1, 1), Size::new(width + 1, 2)], width),
            1 => (vec![Size::new(1, 1), Size::new(1, 0)], width),
            _ => (sized(&mut rng, 3, width), 0),
        });
        calls.push((sized(&mut rng, 4, width), width));
    }

    let mut ws = StripWorkspace::new();
    let mut placements = Vec::new();
    let mut errors = [0u32; 3];
    for (call, (items, width)) in calls.iter().enumerate() {
        let before = placements.clone();
        let reused = ws.pack(items, *width, &mut placements);
        let fresh = pack_strip(items, *width);
        match (reused, fresh) {
            (Ok(height), Ok(fresh)) => {
                assert_eq!(height, fresh.height(), "call {call}");
                assert_eq!(placements, fresh.placements(), "call {call}");
                check_strip_packing(items, *width, &fresh);
            }
            (Err(reused), Err(fresh)) => {
                assert_eq!(reused, fresh, "call {call}");
                assert_eq!(placements, before, "call {call}: an error writes nothing");
                errors[match reused {
                    PackError::ItemTooWide { .. } => 0,
                    PackError::EmptyItem { .. } => 1,
                    _ => 2,
                }] += 1;
            }
            (reused, fresh) => panic!("call {call}: {reused:?} vs {fresh:?}"),
        }
    }
    assert_eq!(errors, [8, 8, 8], "every error kind, in the middle");

    // The container form in the same warm workspace: every instance packs
    // as `pack_into` packs it, and as the packer did with a transposed copy
    // of the items for its second orientation.
    let mut outcomes = [0u32; 4];
    for call in 0..400u64 {
        let width = if call % 50 == 7 {
            0
        } else {
            1 + rng.next_below(16) as u32
        };
        let container = Size::new(width, 1 + rng.next_below(16) as u32);
        let n = [64, 1, 2, 4, 8][call as usize % 5];
        let mut items: Vec<Size> = (0..n).map(|_| item(&mut rng, 8)).collect();
        if call % 50 == 13 {
            items[n / 2].h = 0;
        }
        let before = placements.clone();
        let reused = ws.pack_into(&items, container, &mut placements);
        let fresh = pack_into(&items, container);
        let model = pack_into_with_a_transposed_copy(&items, container);
        match (reused, fresh, model) {
            (Ok(true), Ok(Some(fresh)), Ok(Some((model, orientation)))) => {
                assert_eq!(placements, fresh, "call {call}");
                assert_eq!(placements, model, "call {call}");
                outcomes[orientation] += 1;
            }
            (Ok(false), Ok(None), Ok(None)) => outcomes[2] += 1,
            (Err(reused), Err(fresh), Err(model)) => {
                assert_eq!([reused, fresh], [model, model], "call {call}");
                assert_eq!(placements, before, "call {call}: an error writes nothing");
                outcomes[3] += 1;
            }
            (reused, fresh, model) => {
                panic!("call {call}: {reused:?} vs {fresh:?} vs {model:?}")
            }
        }
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "both orientations, a refusal and an error: {outcomes:?}"
    );
}

/// The container packing as the packer ran it with a transposed copy of
/// the items, with the orientation that fit (0 primary, 1 secondary).
fn pack_into_with_a_transposed_copy(
    items: &[Size],
    container: Size,
) -> Result<Option<(Vec<Rect>, usize)>, PackError> {
    if container.w == 0 || container.h == 0 {
        return Err(PackError::ZeroWidthStrip);
    }
    if let Some(index) = items.iter().position(|i| i.w == 0 || i.h == 0) {
        return Err(PackError::EmptyItem { index });
    }
    if items.iter().any(|i| !i.fits_in(container)) {
        return Ok(None);
    }
    let packing = pack_strip(items, container.w)?;
    if packing.height() <= container.h {
        return Ok(Some((packing.placements().to_vec(), 0)));
    }
    let transposed: Vec<Size> = items.iter().map(|i| Size::new(i.h, i.w)).collect();
    let packing = pack_strip(&transposed, container.h)?;
    if packing.height() <= container.w {
        let back = packing.placements().iter();
        let back = back.map(|r| Rect::from_xywh(r.origin.y, r.origin.x, r.size.h, r.size.w));
        return Ok(Some((back.collect(), 1)));
    }
    Ok(None)
}

#[test]
fn skyline_height_at_least_area_bound() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0xA2_EA ^ case);
        let items = items(&mut rng, 16, 40);
        let width = 16u32;
        let packing = pack_strip(&items, width).unwrap();
        let area: u64 = items.iter().map(|i| i.area()).sum();
        let lower = area.div_ceil(u64::from(width)) as u32;
        assert!(
            packing.height() >= lower,
            "case {case}: height below area lower bound"
        );
        let tallest = items.iter().map(|i| i.h).max().unwrap_or(0);
        assert!(packing.height() >= tallest, "case {case}");
    }
}

#[test]
fn skyline_never_exceeds_stacked_height() {
    // Worst case is stacking everything: a valid packer never does worse
    // than the sum of heights.
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x57_AC ^ case);
        let items = items(&mut rng, 8, 40);
        let packing = pack_strip(&items, 8).unwrap();
        let stacked: u64 = items.iter().map(|i| u64::from(i.h)).sum();
        assert!(u64::from(packing.height()) <= stacked, "case {case}");
    }
}

#[test]
fn shelf_packer_is_sound() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5E_1F ^ case);
        let width = 1 + rng.next_below(10) as u32;
        let items = items(&mut rng, width, 40);
        let ffdh = pack_strip_ffdh(&items, width).unwrap();
        check_strip_packing(&items, width, &ffdh);
    }
}

#[test]
fn pack_into_placements_are_inside_container() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x1B_0C ^ case);
        let items = items(&mut rng, 12, 40);
        let cw = 1 + rng.next_below(12) as u32;
        let ch = 1 + rng.next_below(30) as u32;
        let container = Size::new(cw, ch);
        if let Some(placements) = pack_into(&items, container).unwrap() {
            let bounds = Rect::from_xywh(0, 0, cw, ch);
            assert_eq!(placements.len(), items.len());
            for (item, rect) in items.iter().zip(&placements) {
                assert_eq!(rect.size, *item);
                assert!(bounds.contains_rect(rect), "case {case}");
            }
            assert!(all_disjoint(&placements), "case {case}");
        }
        // The heuristic is incomplete but must agree with the feasibility
        // answer either way.
        let fit = fits_into(&items, container).unwrap();
        assert_eq!(
            fit,
            pack_into(&items, container).unwrap().is_some(),
            "case {case}"
        );
    }
}

#[test]
fn pack_into_never_accepts_over_area() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x0E_4A ^ case);
        let items = items(&mut rng, 12, 40);
        let total: u64 = items.iter().map(|i| i.area()).sum();
        if total == 0 {
            continue;
        }
        // A container strictly smaller than the total item area can never fit.
        let cw = 12u32;
        let ch = ((total - 1) / u64::from(cw)) as u32; // area cw*ch < total
        if ch == 0 {
            continue;
        }
        let placements = pack_into(&items, Size::new(cw, ch)).unwrap();
        assert!(placements.is_none(), "case {case}");
    }
}

#[test]
fn freespace_placements_never_overlap_obstacles() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0xF5_0B ^ case);
        let obstacle_rects: Vec<Rect> = (0..rng.next_below(6))
            .map(|_| {
                Rect::from_xywh(
                    rng.next_below(20) as u32,
                    rng.next_below(10) as u32,
                    1 + rng.next_below(5) as u32,
                    1 + rng.next_below(3) as u32,
                )
            })
            .collect();
        let request = item(&mut rng, 6);
        let container = Size::new(24, 12);
        let mut fs = FreeSpace::new(container);
        for &r in &obstacle_rects {
            fs.occupy(r);
        }
        if let Some(origin) = fs.place(request) {
            let placed = Rect::new(origin, request);
            let bounds = Rect::from_xywh(0, 0, container.w, container.h);
            assert!(bounds.contains_rect(&placed), "case {case}");
            for obs in &obstacle_rects {
                assert!(
                    !placed.overlaps(obs),
                    "case {case}: {placed} overlaps obstacle {obs}"
                );
            }
        }
    }
}

#[test]
fn freespace_area_accounting_is_consistent() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0xF5_A2 ^ case);
        let rects: Vec<Rect> = (0..rng.next_below(5))
            .map(|_| {
                Rect::from_xywh(
                    rng.next_below(16) as u32,
                    rng.next_below(8) as u32,
                    1 + rng.next_below(4) as u32,
                    1 + rng.next_below(3) as u32,
                )
            })
            .collect();
        let container = Size::new(16, 8);
        let mut fs = FreeSpace::new(container);
        let bounds = Rect::from_xywh(0, 0, 16, 8);
        for &r in &rects {
            fs.occupy(r);
        }
        // Compute expected free area by brute-force cell counting.
        let mut expected = 0u64;
        for x in 0..16u32 {
            for y in 0..8u32 {
                let covered = rects.iter().any(|r| r.contains_cell(x, y));
                if bounds.contains_cell(x, y) && !covered {
                    expected += 1;
                }
            }
        }
        assert_eq!(fs.free_area(), expected, "case {case}");
    }
}

#[test]
fn freespace_place_all_atomicity() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0xF5_0D ^ case);
        let sizes: Vec<Size> = (0..1 + rng.next_below(7))
            .map(|_| item(&mut rng, 5))
            .collect();
        let mut fs = FreeSpace::new(Size::new(10, 6));
        fs.occupy(Rect::from_xywh(0, 0, 5, 6));
        let before = fs.free_area();
        match fs.place_all(&sizes) {
            Some(placements) => {
                assert!(all_disjoint(&placements), "case {case}");
                let placed: u64 = sizes.iter().map(|s| s.area()).sum();
                assert_eq!(fs.free_area(), before - placed, "case {case}");
            }
            None => assert_eq!(fs.free_area(), before, "case {case}"),
        }
    }
}

#[test]
fn rect_distance_triangle_inequality_with_zero() {
    for case in 0..200u64 {
        let mut rng = SplitMix64::new(0xD1_57 ^ case);
        let mut rect = |_| {
            Rect::from_xywh(
                rng.next_below(20) as u32,
                rng.next_below(20) as u32,
                1 + rng.next_below(5) as u32,
                1 + rng.next_below(5) as u32,
            )
        };
        let a = rect(0);
        let b = rect(1);
        assert_eq!(a.distance_to(&b), b.distance_to(&a), "case {case}");
        if a.overlaps(&b) {
            assert_eq!(a.distance_to(&b), 0, "case {case}");
        }
        assert_eq!(a.distance_to(&a), 0, "case {case}");
    }
}

#[test]
fn exact_solver_sandwiched_between_bounds() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xE7_AC ^ case);
        let width = 3 + rng.next_below(6) as u32;
        let items: Vec<Size> = (0..1 + rng.next_below(5))
            .map(|_| {
                Size::new(
                    1 + rng.next_below(u64::from(width.min(5))) as u32,
                    1 + rng.next_below(5) as u32,
                )
            })
            .collect();
        let heuristic = pack_strip(&items, width).unwrap().height();
        let exact = packing::exact_strip_height(&items, width, 2_000_000).unwrap();
        assert!(
            exact.is_optimal(),
            "case {case}: tiny instances must complete"
        );
        let optimal = exact.height();
        // Sandwich: area/width ≤ optimal ≤ heuristic, and the tallest item
        // is a lower bound too.
        assert!(optimal <= heuristic, "case {case}");
        let area: u64 = items.iter().map(|i| i.area()).sum();
        assert!(
            u64::from(optimal) >= area.div_ceil(u64::from(width)),
            "case {case}"
        );
        let tallest = items.iter().map(|i| i.h).max().unwrap();
        assert!(optimal >= tallest, "case {case}");
    }
}

#[test]
fn maxrects_strip_never_beats_exact_optimum() {
    // The bench's quality factor divides a greedy-MaxRects strip height by
    // the exact optimum; the factor is only meaningful if every height
    // MaxRects succeeds at is a genuine packing, so optimal ≤ maxrects.
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x3A_C7 ^ case);
        let width = 4 + rng.next_below(6) as u32;
        let items: Vec<Size> = (0..1 + rng.next_below(6))
            .map(|_| {
                Size::new(
                    1 + rng.next_below(u64::from(width.min(5))) as u32,
                    1 + rng.next_below(5) as u32,
                )
            })
            .collect();
        let exact = packing::exact_strip_height(&items, width, 2_000_000).unwrap();
        assert!(exact.is_optimal(), "case {case}");
        let total_h: u32 = items.iter().map(|i| i.h).sum();
        let mut h = exact.height();
        let maxrects = loop {
            assert!(h <= total_h.max(1), "case {case}: scan ran away");
            match FreeSpace::new(Size::new(width, h)).place_all(&items) {
                Some(rects) => {
                    assert!(all_disjoint(&rects), "case {case}: overlap at {h}");
                    break h;
                }
                None => h += 1,
            }
        };
        assert!(maxrects >= exact.height(), "case {case}");
    }
}
