//! One ordered parallel map over independent, deterministic work.
//!
//! Every number sioscope produces comes from many independent
//! simulations: chaos cases, sweep points, registry experiments. Each
//! is a pure function of its input, so running them on several cores
//! changes nothing but the wall clock — as long as the results come
//! back in input order. [`par_map`] is the one place the workspace
//! starts threads.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while this thread maps an item for a [`par_map`]; a map
    /// nested inside one runs serially on its worker.
    static MAPPING: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a map worker until dropped.
struct Mapping(bool);

impl Mapping {
    fn enter() -> Mapping {
        Mapping(MAPPING.replace(true))
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        MAPPING.set(self.0);
    }
}

/// `items.iter().map(f).collect()`, with the calls to `f` spread over
/// every available core.
///
/// The result is in input order whatever the schedule, so a
/// deterministic `f` gives the same vector as the serial map. Workers
/// claim the next unmapped index from a shared counter and the calling
/// thread is one of them, so a map over `n` items on `w` cores starts
/// `min(n, w) - 1` threads. With one core, one item, or when called
/// from inside another `par_map`'s `f`, it is the plain serial map.
///
/// A panic in `f` stops workers from claiming further items and is
/// re-raised on the caller with its original payload; if several
/// items panic, the lowest index's payload wins.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    par_map_on(cores, items, f)
}

/// [`par_map`] on at most `workers` threads, the caller included.
fn par_map_on<T: Sync, R: Send>(workers: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 || MAPPING.get() {
        return items.iter().map(f).collect();
    }
    type Panic = (usize, Box<dyn Any + Send>);
    let next = AtomicUsize::new(0);
    let work = || -> Result<Vec<(usize, R)>, Panic> {
        let _mapping = Mapping::enter();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return Ok(done);
            };
            match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => done.push((i, r)),
                Err(payload) => {
                    next.store(items.len(), Ordering::Relaxed);
                    return Err((i, payload));
                }
            }
        }
    };
    let batches: Vec<Result<Vec<(usize, R)>, Panic>> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut batches = vec![work()];
        for handle in spawned {
            // `work` catches every panic of `f`, so a worker thread
            // itself never unwinds.
            batches.push(handle.join().expect("par_map worker unwound"));
        }
        batches
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut first_panic: Option<Panic> = None;
    for batch in batches {
        match batch {
            Ok(done) => {
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            }
            Err(p) => {
                if first_panic.as_ref().is_none_or(|(i, _)| p.0 < *i) {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some((_, payload)) = first_panic {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index is mapped once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..200).collect();
        // Uneven work so workers finish out of order.
        let square = |&x: &u64| {
            let mut acc = 0u64;
            for k in 0..(x % 7) * 1000 {
                acc = acc.wrapping_add(k);
            }
            std::hint::black_box(acc);
            x * x
        };
        let want: Vec<u64> = items.iter().map(square).collect();
        assert_eq!(par_map(&items, square), want);
        assert_eq!(par_map_on(4, &items, square), want);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, |x| x + 1).is_empty());
        assert!(par_map_on(8, &none, |x| x + 1).is_empty());
        assert_eq!(par_map_on(8, &[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn one_worker_and_many_workers_agree() {
        let items: Vec<u32> = (0..97).collect();
        let f = |&x: &u32| format!("{x}:{}", x.wrapping_mul(2_654_435_761));
        let serial = par_map_on(1, &items, f);
        for workers in [2, 3, 8, 200] {
            assert_eq!(par_map_on(workers, &items, f), serial, "{workers} workers");
        }
    }

    #[test]
    fn every_item_is_mapped_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_on(4, &items, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..16).collect();
        let caught = panic::catch_unwind(|| {
            par_map_on(4, &items, |&x| {
                if x == 11 {
                    panic!("item {x} failed");
                }
                x
            })
        })
        .expect_err("the panic propagates");
        assert_eq!(caught.downcast_ref::<String>().unwrap(), "item 11 failed");

        // A non-string payload arrives unchanged too.
        let caught = panic::catch_unwind(|| {
            par_map_on(3, &items, |&x| {
                if x == 5 {
                    panic::panic_any(x);
                }
                x
            })
        })
        .expect_err("the panic propagates");
        assert_eq!(caught.downcast_ref::<u32>(), Some(&5));
    }

    #[test]
    fn a_nested_map_runs_serially_on_its_worker() {
        let outer: Vec<u32> = (0..6).collect();
        let out = par_map_on(3, &outer, |&x| {
            assert!(MAPPING.get(), "the outer map marks its workers");
            let inner: Vec<u32> = (0..x).collect();
            let me = std::thread::current().id();
            par_map_on(4, &inner, |&y| {
                assert_eq!(std::thread::current().id(), me);
                y
            })
            .into_iter()
            .sum::<u32>()
        });
        assert_eq!(out, vec![0, 0, 1, 3, 6, 10]);
        assert!(!MAPPING.get(), "the caller's mark is restored");
    }
}
