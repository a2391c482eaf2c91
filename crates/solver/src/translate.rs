//! Translation from bounded relational logic to boolean circuits.
//!
//! Every relation becomes a sparse matrix of gates indexed by tuple: tuples
//! in the lower bound map to constant-true, tuples outside the upper bound
//! are absent (constant-false), and tuples in between become free inputs.
//! Relational operators combine matrices pointwise or by join; transitive
//! closure uses iterative squaring (or naive unrolling, for the ablation
//! study). Formulas reduce to a single root gate.
//!
//! Within one formula, each distinct composite subexpression that reads
//! no quantified variable is translated once: its matrix is cached under
//! the expression itself (a structural key, so separately built copies of
//! one derived relation share an entry) and later occurrences reuse it,
//! the way Kodkod caches shared subterms. A second translation would only
//! rebuild gates that structural hashing in the [`Circuit`] already
//! holds, so the cache changes the work done, never the circuit. It is
//! dropped when the formula is done, so a long-lived session does not
//! accumulate entries for formulas it will not see again.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use relational::ast::{Expr, Formula, VarId};
use relational::{Atom, Bounds, Schema, Tuple, TupleSet, TypeError};
use satsolver::hash::FxHashMap;

use crate::circuit::{Circuit, GateId};

/// Strategy for encoding transitive closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClosureStrategy {
    /// `log₂(n)` squaring steps: `r ← r ∪ r;r`.
    #[default]
    IterativeSquaring,
    /// `n-1` linear unrolling steps: `acc ← r ∪ acc;r`.
    Unrolled,
}

/// A sparse boolean matrix over tuples: the translated value of an
/// expression. Tuples absent from `entries` are constant-false.
#[derive(Debug, Clone)]
pub struct Matrix {
    arity: usize,
    entries: BTreeMap<Tuple, GateId>,
}

impl Matrix {
    fn empty(arity: usize) -> Matrix {
        Matrix {
            arity,
            entries: BTreeMap::new(),
        }
    }

    fn constant(c: &mut Circuit, ts: &TupleSet) -> Matrix {
        let mut m = Matrix::empty(ts.arity());
        let t = c.tru();
        for tuple in ts.iter() {
            m.entries.insert(tuple.clone(), t);
        }
        m
    }

    fn insert(&mut self, c: &Circuit, t: Tuple, g: GateId) {
        if !c.is_false(g) {
            self.entries.insert(t, g);
        }
    }

    fn get(&self, c: &Circuit, t: &Tuple) -> GateId {
        self.entries.get(t).copied().unwrap_or(c.fls())
    }

    /// The arity of this matrix.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The non-false entries.
    pub fn entries(&self) -> impl Iterator<Item = (&Tuple, GateId)> {
        self.entries.iter().map(|(t, &g)| (t, g))
    }
}

/// The result of translating a problem: a circuit, the root gate that must
/// hold, and for each relation the map from tuple to input index used for
/// decoding models.
#[derive(Debug)]
pub struct Translation {
    /// The boolean circuit.
    pub circuit: Circuit,
    /// The gate asserting the formula and all bounds.
    pub root: GateId,
    /// For each relation id: tuple → circuit input index.
    pub rel_inputs: Vec<BTreeMap<Tuple, u32>>,
    /// Sparse matrix cells materialized while translating (relation
    /// allocation plus every operator result not served from the
    /// subexpression cache); see [`IncrementalTranslator::matrix_cells`].
    pub matrix_cells: u64,
}

/// Translates `formula` under `bounds` into a boolean circuit.
///
/// # Errors
///
/// Returns a [`TypeError`] if the formula or any expression in it violates
/// arity discipline.
pub fn translate(
    schema: &Schema,
    bounds: &Bounds,
    formula: &Formula,
    strategy: ClosureStrategy,
) -> Result<Translation, TypeError> {
    let mut tr = IncrementalTranslator::new(schema, bounds, strategy);
    let root = tr.formula(formula)?;
    Ok(Translation {
        circuit: tr.inner.circuit,
        root,
        rel_inputs: tr.inner.rel_inputs,
        matrix_cells: tr.inner.cells,
    })
}

/// A persistent translator: one circuit accumulating the translations of
/// many formulas over the same (schema, bounds).
///
/// The relation matrices are allocated once at construction, so every
/// translated formula refers to the *same* input gates, and structural
/// hashing in the shared [`Circuit`] dedups any subexpression (joins,
/// closure squaring chains, quantifier expansions) that later formulas
/// have in common with earlier ones. This is the translation half of the
/// incremental `Session` pipeline.
#[derive(Debug)]
pub struct IncrementalTranslator {
    inner: Translator,
}

impl IncrementalTranslator {
    /// Creates a translator for `(schema, bounds)`, allocating the
    /// relation matrices.
    pub fn new(
        schema: &Schema,
        bounds: &Bounds,
        strategy: ClosureStrategy,
    ) -> IncrementalTranslator {
        let mut inner = Translator {
            schema: schema.clone(),
            bounds: bounds.clone(),
            circuit: Circuit::new(),
            rel_matrices: Vec::new(),
            rel_inputs: Vec::new(),
            env: HashMap::new(),
            strategy,
            bool_inputs: HashMap::new(),
            cells: 0,
            cache: FxHashMap::default(),
            var_reads: 0,
        };
        inner.allocate_relations();
        IncrementalTranslator { inner }
    }

    /// Translates one more formula into the shared circuit and returns
    /// its root gate.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the formula violates arity discipline.
    pub fn formula(&mut self, formula: &Formula) -> Result<GateId, TypeError> {
        relational::check_formula(formula, &self.inner.schema)?;
        let root = self.inner.formula(formula);
        // Free the table too, not just its entries: pooled sessions
        // would each keep a cache-sized allocation alive.
        self.inner.cache = FxHashMap::default();
        root
    }

    /// The shared circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.inner.circuit
    }

    /// Mutable access to the shared circuit (symmetry-breaking predicates
    /// are built directly into it).
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.inner.circuit
    }

    /// The mutable circuit together with the relation input maps, for
    /// callers (symmetry breaking) that need both at once.
    pub fn parts_mut(&mut self) -> (&mut Circuit, &[BTreeMap<Tuple, u32>]) {
        (&mut self.inner.circuit, &self.inner.rel_inputs)
    }

    /// For each relation id: tuple → circuit input index.
    pub fn rel_inputs(&self) -> &[BTreeMap<Tuple, u32>] {
        &self.inner.rel_inputs
    }

    /// The schema this translator was built for.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// The bounds this translator was built for.
    pub fn bounds(&self) -> &Bounds {
        &self.inner.bounds
    }

    /// Cumulative count of sparse matrix cells materialized by this
    /// translator: the relation matrices allocated at construction plus
    /// every entry of every operator result (union, join, closure
    /// squaring steps, …). A subexpression served from the per-formula
    /// cache materializes nothing, so repeats within one formula count
    /// once. A measure of translation-side work that is deterministic
    /// for a fixed (schema, bounds, formula) sequence.
    pub fn matrix_cells(&self) -> u64 {
        self.inner.cells
    }
}

#[derive(Debug)]
struct Translator {
    schema: Schema,
    bounds: Bounds,
    circuit: Circuit,
    /// Shared, not copied, by every `Expr::Rel` occurrence.
    rel_matrices: Vec<Arc<Matrix>>,
    rel_inputs: Vec<BTreeMap<Tuple, u32>>,
    env: HashMap<VarId, Atom>,
    strategy: ClosureStrategy,
    /// Circuit input allocated for each free boolean, keyed by
    /// [`relational::BoolId`] index. Persistent across formulas so a
    /// `Free(b)` in two formulas of one session refers to the same input;
    /// queries that want independent booleans must use distinct ids.
    bool_inputs: HashMap<u32, GateId>,
    /// Matrix cells materialized so far; see
    /// [`IncrementalTranslator::matrix_cells`].
    cells: u64,
    /// Matrices of the closed composite subexpressions translated during
    /// the current formula (see the module docs); emptied after each.
    cache: FxHashMap<Expr, Arc<Matrix>>,
    /// `Expr::Var` translations so far. A subexpression whose
    /// translation leaves this unchanged read no quantifier binding, so
    /// its matrix is the same under every binding and may be cached.
    var_reads: u64,
}

impl Translator {
    fn allocate_relations(&mut self) {
        for (id, d) in self.schema.iter() {
            let lower = self.bounds.lower(id);
            let upper = self.bounds.upper(id);
            let mut m = Matrix::empty(d.arity);
            let mut inputs = BTreeMap::new();
            for t in upper.iter() {
                let g = if lower.contains(t) {
                    self.circuit.tru()
                } else {
                    let g = self.circuit.input();
                    inputs.insert(t.clone(), (self.circuit.num_inputs() - 1) as u32);
                    g
                };
                m.entries.insert(t.clone(), g);
            }
            self.cells += m.entries.len() as u64;
            self.rel_matrices.push(Arc::new(m));
            self.rel_inputs.push(inputs);
        }
    }

    /// Notes a freshly materialized matrix for the cell counter.
    fn built(&mut self, m: Matrix) -> Matrix {
        self.cells += m.entries.len() as u64;
        m
    }

    /// The matrix of `e`. Relation matrices are shared, not copied;
    /// composite expressions go through [`Translator::composite`].
    fn expr(&mut self, e: &Expr) -> Result<Arc<Matrix>, TypeError> {
        let n = self.bounds.universe_size();
        let m = match e {
            Expr::Rel(r) => return Ok(Arc::clone(&self.rel_matrices[r.index()])),
            Expr::Var(v) => {
                self.var_reads += 1;
                let atom = *self.env.get(v).ok_or(TypeError::UnboundVar(*v))?;
                let mut m = Matrix::empty(1);
                m.entries.insert(Tuple::new(vec![atom]), self.circuit.tru());
                m
            }
            Expr::Const(ts) => Matrix::constant(&mut self.circuit, ts),
            Expr::Iden => Matrix::constant(&mut self.circuit, &TupleSet::iden(n)),
            Expr::Univ => Matrix::constant(&mut self.circuit, &TupleSet::universe(n)),
            Expr::None(a) => return Ok(Arc::new(Matrix::empty(*a))),
            _ => return self.composite(e),
        };
        Ok(Arc::new(self.built(m)))
    }

    /// The matrix of an operator expression: from the cache if this
    /// formula already translated `e`, else built from its operands and,
    /// when it read no quantified variable, cached.
    fn composite(&mut self, e: &Expr) -> Result<Arc<Matrix>, TypeError> {
        if let Some(m) = self.cache.get(e) {
            return Ok(Arc::clone(m));
        }
        let var_reads = self.var_reads;
        let n = self.bounds.universe_size();
        let m = Arc::new(match e {
            Expr::Union(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.union(&ma, &mb)
            }
            Expr::Intersect(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.intersect(&ma, &mb)
            }
            Expr::Difference(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.difference(&ma, &mb)
            }
            Expr::Join(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.join(&ma, &mb)
            }
            Expr::Product(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.product(&ma, &mb)
            }
            Expr::Transpose(a) => {
                let ma = self.expr(a)?;
                let mut m = Matrix::empty(2);
                for (t, &g) in &ma.entries {
                    m.entries.insert(t.reversed(), g);
                }
                self.built(m)
            }
            Expr::Closure(a) => {
                let ma = self.expr(a)?;
                self.closure(&ma)
            }
            Expr::ReflexiveClosure(a) => {
                let ma = self.expr(a)?;
                let closed = self.closure(&ma);
                let iden = Matrix::constant(&mut self.circuit, &TupleSet::iden(n));
                self.union(&closed, &iden)
            }
            _ => unreachable!("leaf expressions are built by `expr`"),
        });
        if self.var_reads == var_reads {
            self.cache.insert(e.clone(), Arc::clone(&m));
        }
        Ok(m)
    }

    fn union(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = Matrix::empty(a.arity);
        for (t, &g) in &a.entries {
            m.entries.insert(t.clone(), g);
        }
        for (t, &g) in &b.entries {
            let existing = m.get(&self.circuit, t);
            let merged = self.circuit.or(existing, g);
            m.insert(&self.circuit, t.clone(), merged);
        }
        self.built(m)
    }

    fn intersect(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = Matrix::empty(a.arity);
        for (t, &ga) in &a.entries {
            let gb = b.get(&self.circuit, t);
            let g = self.circuit.and(ga, gb);
            m.insert(&self.circuit, t.clone(), g);
        }
        self.built(m)
    }

    fn difference(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = Matrix::empty(a.arity);
        for (t, &ga) in &a.entries {
            let gb = b.get(&self.circuit, t);
            let ngb = self.circuit.not(gb);
            let g = self.circuit.and(ga, ngb);
            m.insert(&self.circuit, t.clone(), g);
        }
        self.built(m)
    }

    fn join(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let result_arity = a.arity + b.arity - 2;
        // Index b by first atom.
        let mut index: FxHashMap<Atom, Vec<(&Tuple, GateId)>> = FxHashMap::default();
        for (t, &g) in &b.entries {
            index.entry(t.atoms()[0]).or_default().push((t, g));
        }
        // Group products by result tuple, then OR them together.
        let mut products: BTreeMap<Tuple, Vec<GateId>> = BTreeMap::new();
        for (ta, &ga) in &a.entries {
            let last = *ta.atoms().last().expect("tuples are non-empty");
            if let Some(matches) = index.get(&last) {
                for &(tb, gb) in matches {
                    let mut atoms = ta.atoms()[..a.arity - 1].to_vec();
                    atoms.extend_from_slice(&tb.atoms()[1..]);
                    let g = self.circuit.and(ga, gb);
                    if !self.circuit.is_false(g) {
                        products.entry(Tuple::new(atoms)).or_default().push(g);
                    }
                }
            }
        }
        let mut m = Matrix::empty(result_arity);
        for (t, gates) in products {
            let g = self.circuit.or_all(gates);
            m.insert(&self.circuit, t, g);
        }
        self.built(m)
    }

    fn product(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = Matrix::empty(a.arity + b.arity);
        for (ta, &ga) in &a.entries {
            for (tb, &gb) in &b.entries {
                let g = self.circuit.and(ga, gb);
                m.insert(&self.circuit, ta.concat(tb), g);
            }
        }
        self.built(m)
    }

    fn closure(&mut self, a: &Matrix) -> Matrix {
        let n = self.bounds.universe_size();
        match self.strategy {
            ClosureStrategy::IterativeSquaring => {
                let mut acc = a.clone();
                let mut span = 1usize;
                while span < n {
                    let squared = self.join(&acc, &acc);
                    acc = self.union(&acc, &squared);
                    span *= 2;
                }
                acc
            }
            ClosureStrategy::Unrolled => {
                let mut acc = a.clone();
                for _ in 1..n {
                    let step = self.join(&acc, a);
                    acc = self.union(a, &step);
                }
                acc
            }
        }
    }

    fn formula(&mut self, f: &Formula) -> Result<GateId, TypeError> {
        Ok(match f {
            Formula::True => self.circuit.tru(),
            Formula::False => self.circuit.fls(),
            Formula::Free(b) => {
                let circuit = &mut self.circuit;
                *self
                    .bool_inputs
                    .entry(b.0)
                    .or_insert_with(|| circuit.input())
            }
            Formula::Subset(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                self.subset(&ma, &mb)
            }
            Formula::Equal(a, b) => {
                let (ma, mb) = (self.expr(a)?, self.expr(b)?);
                let fwd = self.subset(&ma, &mb);
                let back = self.subset(&mb, &ma);
                self.circuit.and(fwd, back)
            }
            Formula::Some(a) => {
                let ma = self.expr(a)?;
                let gates: Vec<GateId> = ma.entries.values().copied().collect();
                self.circuit.or_all(gates)
            }
            Formula::No(a) => {
                let ma = self.expr(a)?;
                let gates: Vec<GateId> = ma.entries.values().copied().collect();
                let any = self.circuit.or_all(gates);
                self.circuit.not(any)
            }
            Formula::One(a) => {
                let ma = self.expr(a)?;
                let some = {
                    let gates: Vec<GateId> = ma.entries.values().copied().collect();
                    self.circuit.or_all(gates)
                };
                let lone = self.at_most_one(&ma);
                self.circuit.and(some, lone)
            }
            Formula::Lone(a) => {
                let ma = self.expr(a)?;
                self.at_most_one(&ma)
            }
            Formula::Not(inner) => {
                let g = self.formula(inner)?;
                self.circuit.not(g)
            }
            Formula::And(fs) => {
                let mut gates = Vec::with_capacity(fs.len());
                for f in fs {
                    gates.push(self.formula(f)?);
                }
                self.circuit.and_all(gates)
            }
            Formula::Or(fs) => {
                let mut gates = Vec::with_capacity(fs.len());
                for f in fs {
                    gates.push(self.formula(f)?);
                }
                self.circuit.or_all(gates)
            }
            Formula::Implies(a, b) => {
                let (ga, gb) = (self.formula(a)?, self.formula(b)?);
                self.circuit.implies(ga, gb)
            }
            Formula::Iff(a, b) => {
                let (ga, gb) = (self.formula(a)?, self.formula(b)?);
                self.circuit.iff(ga, gb)
            }
            Formula::ForAll(v, domain, body) => {
                let md = self.expr(domain)?;
                let mut gates = Vec::new();
                for (t, &gd) in &md.entries {
                    self.env.insert(*v, t.atoms()[0]);
                    let gb = self.formula(body)?;
                    self.env.remove(v);
                    gates.push(self.circuit.implies(gd, gb));
                }
                self.circuit.and_all(gates)
            }
            Formula::Exists(v, domain, body) => {
                let md = self.expr(domain)?;
                let mut gates = Vec::new();
                for (t, &gd) in &md.entries {
                    self.env.insert(*v, t.atoms()[0]);
                    let gb = self.formula(body)?;
                    self.env.remove(v);
                    gates.push(self.circuit.and(gd, gb));
                }
                self.circuit.or_all(gates)
            }
        })
    }

    fn subset(&mut self, a: &Matrix, b: &Matrix) -> GateId {
        let mut gates = Vec::with_capacity(a.entries.len());
        for (t, &ga) in &a.entries {
            let gb = b.get(&self.circuit, t);
            gates.push(self.circuit.implies(ga, gb));
        }
        self.circuit.and_all(gates)
    }

    fn at_most_one(&mut self, a: &Matrix) -> GateId {
        let gates: Vec<GateId> = a.entries.values().copied().collect();
        let mut constraints = Vec::new();
        for i in 0..gates.len() {
            for j in (i + 1)..gates.len() {
                let both = self.circuit.and(gates[i], gates[j]);
                constraints.push(self.circuit.not(both));
            }
        }
        self.circuit.and_all(constraints)
    }
}

// Re-check that arity discipline is validated before translation: the
// public entry point calls `relational::check_formula` first, so the
// matrix operations may assume consistent arities.
#[cfg(test)]
mod tests {
    use super::*;
    use relational::schema::rel;

    #[test]
    fn translation_counts_inputs() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 2);
        bounds.bound_upper(r, TupleSet::from_pairs([(0, 0), (0, 1), (1, 0), (1, 1)]));
        let f = rel(r).some();
        let tr = translate(&schema, &bounds, &f, ClosureStrategy::default()).unwrap();
        assert_eq!(tr.rel_inputs[0].len(), 4);
        assert!(!tr.circuit.is_false(tr.root));
    }

    #[test]
    fn lower_bound_tuples_are_constant_true() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 2);
        bounds.bound(
            r,
            TupleSet::from_pairs([(0, 1)]),
            TupleSet::from_pairs([(0, 1), (1, 0)]),
        );
        // `some r` must be constant-true: (0,1) is always present.
        let tr = translate(&schema, &bounds, &rel(r).some(), ClosureStrategy::default()).unwrap();
        assert!(tr.circuit.is_true(tr.root));
        assert_eq!(tr.rel_inputs[0].len(), 1); // only (1,0) is free
    }

    #[test]
    fn matrix_cells_are_counted_and_deterministic() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 3);
        bounds.bound_upper(r, TupleSet::universe(3).product(&TupleSet::universe(3)));
        let f = rel(r)
            .closure()
            .intersect(&relational::ast::Expr::Iden)
            .no();
        let a = translate(&schema, &bounds, &f, ClosureStrategy::default()).unwrap();
        let b = translate(&schema, &bounds, &f, ClosureStrategy::default()).unwrap();
        assert!(a.matrix_cells > 9, "closure work must be counted");
        assert_eq!(a.matrix_cells, b.matrix_cells);
    }

    /// `r` binary, `s` and `x` unary, over a universe of three atoms,
    /// everything free.
    fn closure_schema() -> (Schema, Bounds, [relational::RelId; 3]) {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let s = schema.relation("s", 1);
        let x = schema.relation("x", 1);
        let mut bounds = Bounds::new(&schema, 3);
        bounds.bound_upper(r, TupleSet::universe(3).product(&TupleSet::universe(3)));
        bounds.bound_upper(s, TupleSet::universe(3));
        bounds.bound_upper(x, TupleSet::universe(3));
        (schema, bounds, [r, s, x])
    }

    #[test]
    fn quantified_body_mixing_closed_and_bound_parts_is_exact() {
        // all v: x | v.(^r) in s — the closure is closed and cached, the
        // join reads `v` and must be rebuilt for every atom.
        let (schema, bounds, [r, s, x]) = closure_schema();
        let v = VarId::new(0);
        let quantified =
            Formula::for_all(v, rel(x), Expr::Var(v).join(&rel(r).closure()).in_(&rel(s)));
        let instantiated = Formula::and_all((0..3).map(|a| {
            let atom = Expr::constant(TupleSet::from_atoms([a]));
            atom.in_(&rel(x))
                .implies(&atom.join(&rel(r).closure()).in_(&rel(s)))
        }));
        let mut tr = IncrementalTranslator::new(&schema, &bounds, ClosureStrategy::default());
        let root = tr.formula(&quantified).unwrap();
        assert_eq!(tr.formula(&instantiated).unwrap(), root);

        // The circuit agrees with the ground evaluator on a spread of
        // instances (a fixed linear congruential stream picks the tuples).
        let mut seed = 0x2545_f491_u64;
        let mut outcomes = [false; 2];
        for _ in 0..24 {
            let mut inst = relational::Instance::empty(&schema, 3);
            let mut inputs = vec![false; tr.circuit().num_inputs()];
            for (id, map) in tr.rel_inputs().iter().enumerate() {
                let mut value = TupleSet::empty(schema.iter().nth(id).unwrap().1.arity);
                for (t, &k) in map {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    if seed >> 63 == 1 {
                        inputs[k as usize] = true;
                        value.insert(t.clone());
                    }
                }
                inst.set([r, s, x][id], value);
            }
            let holds = relational::eval_formula(&schema, &inst, &quantified).unwrap();
            assert_eq!(
                tr.circuit().eval(root, &inputs),
                holds,
                "circuit and evaluator disagree on\n{}",
                inst.display(&schema)
            );
            outcomes[usize::from(holds)] = true;
        }
        assert_eq!(
            outcomes,
            [true, true],
            "the instances must reach both verdicts"
        );
    }

    #[test]
    fn repeated_subformula_materializes_nothing_more() {
        // Two separately built copies of one formula: the structural key
        // must make the second a cache hit throughout.
        let (schema, bounds, [r, _, _]) = closure_schema();
        let f = || rel(r).closure().join(&rel(r)).intersect(&Expr::Iden).no();
        let once = translate(&schema, &bounds, &f(), ClosureStrategy::default()).unwrap();
        let twice =
            translate(&schema, &bounds, &f().and(&f()), ClosureStrategy::default()).unwrap();
        assert_eq!(twice.matrix_cells, once.matrix_cells);
        assert_eq!(twice.circuit.num_gates(), once.circuit.num_gates());
    }

    #[test]
    fn cache_is_dropped_after_each_formula() {
        let (schema, bounds, [r, s, _]) = closure_schema();
        let mut tr = IncrementalTranslator::new(&schema, &bounds, ClosureStrategy::default());
        let allocated = tr.matrix_cells();
        let f = rel(r).closure().join(&rel(s)).some();
        tr.formula(&f).unwrap();
        assert!(tr.inner.cache.is_empty());
        // A later formula re-translates the closure from scratch (its
        // cells count again) but lands on the same gates.
        let gates = tr.circuit().num_gates();
        let cells = tr.matrix_cells();
        tr.formula(&f).unwrap();
        assert!(tr.inner.cache.is_empty());
        assert_eq!(tr.circuit().num_gates(), gates);
        assert_eq!(tr.matrix_cells() - cells, cells - allocated);
    }

    #[test]
    fn type_errors_propagate() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let s = schema.relation("s", 1);
        let bounds = Bounds::new(&schema, 2);
        let bad = rel(r).union(&rel(s)).some();
        assert!(translate(&schema, &bounds, &bad, ClosureStrategy::default()).is_err());
    }
}
