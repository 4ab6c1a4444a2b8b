//! From-scratch neural networks with real backpropagation.
//!
//! Two architectures share one parameter layout:
//!
//! * **Dense** — a fully-connected ReLU MLP.
//! * **ConvMLP** — convolutional stages (valid 2-D convolution + ReLU +
//!   average pooling) followed by dense layers, the shape of the paper's
//!   ConvMLP recognition model (Li et al.).
//!
//! All parameters are stored as a flat list of matrices so the rest of
//! the system can address *rows* uniformly: a row of a dense weight
//! matrix is one output neuron's fan-in; a row of a convolution kernel
//! matrix is one output channel's filter bank — both natural units for
//! ROG's row-granulated scheduling.

use std::cell::RefCell;

use rog_tensor::rng::DetRng;
use rog_tensor::{ops, Matrix, SumOrder};

use crate::data::{Dataset, Targets};

/// Gradients (or any parameter-shaped quantity) for a whole model.
pub type GradSet = Vec<Matrix>;

/// Rows per batched evaluation block.
const EVAL_BLOCK: usize = 64;

/// Buffers of the batched dense passes, reused so that a warm gradient
/// draw or evaluation never calls the allocator.
#[derive(Default)]
struct DenseScratch {
    /// Packed weight panels of the layer being multiplied.
    panels: Vec<f32>,
    /// `acts[l]` is the input of layer `l` (post-ReLU for `l > 0`) and
    /// `acts[n_layers]` the raw model output.
    acts: Vec<Matrix>,
    /// dL/dz of the layer the backward pass is at, and dL/da of the
    /// layer below it (swapped as the pass descends).
    dz: Matrix,
    da: Matrix,
}

thread_local! {
    static SCRATCH: RefCell<DenseScratch> = RefCell::default();
}

/// Output-head objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Softmax + cross-entropy over class logits.
    Classification,
    /// Mean-squared-error regression.
    Regression,
}

/// One convolutional stage: valid convolution (stride 1), ReLU, then
/// non-overlapping average pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Number of output channels (= rows of the kernel matrix).
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Pooling window (1 disables pooling).
    pub pool: usize,
}

#[derive(Debug, Clone)]
enum Arch {
    Dense {
        dims: Vec<usize>,
    },
    ConvMlp {
        /// Input shape `(channels, height, width)`.
        input: (usize, usize, usize),
        convs: Vec<ConvSpec>,
        /// Dense widths including the flattened conv output and the
        /// model output.
        dense_dims: Vec<usize>,
    },
}

/// A feed-forward network (dense MLP or ConvMLP).
///
/// # Example
///
/// ```
/// use rog_models::{Mlp, Task};
/// use rog_tensor::rng::DetRng;
///
/// let mlp = Mlp::new(&[4, 8, 3], Task::Classification, &mut DetRng::new(0));
/// assert_eq!(mlp.total_rows(), 8 + 1 + 3 + 1);
/// let logits = mlp.forward(&[0.1, 0.2, 0.3, 0.4]);
/// assert_eq!(logits.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    arch: Arch,
    /// Weight/bias pairs per layer: `[W1, b1, W2, b2, ...]` (conv stages
    /// first for ConvMLP).
    params: Vec<Matrix>,
    task: Task,
}

/// A model viewed as its parameter matrices ([`Mlp::params`]).
impl AsRef<[Matrix]> for Mlp {
    fn as_ref(&self) -> &[Matrix] {
        &self.params
    }
}

/// Output shape after one conv stage.
fn conv_out_shape(input: (usize, usize, usize), spec: ConvSpec) -> (usize, usize, usize) {
    let (_, h, w) = input;
    assert!(
        h >= spec.kernel && w >= spec.kernel,
        "kernel larger than input"
    );
    let (ch, cw) = (h - spec.kernel + 1, w - spec.kernel + 1);
    let p = spec.pool.max(1);
    (spec.out_channels, ch / p, cw / p)
}

impl Mlp {
    /// Creates a dense network with He-initialized weights.
    ///
    /// `dims` lists layer widths including input and output, e.g.
    /// `[in, hidden..., out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(dims: &[usize], task: Task, rng: &mut DetRng) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut params = Vec::new();
        for w in dims.windows(2) {
            push_dense(&mut params, w[0], w[1], rng);
        }
        Self {
            arch: Arch::Dense {
                dims: dims.to_vec(),
            },
            params,
            task,
        }
    }

    /// Creates a ConvMLP: `convs` stages over an `input`-shaped image,
    /// then dense layers of the given `hidden` widths down to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a kernel exceeds its input or a pooled dimension
    /// reaches zero.
    pub fn conv_mlp(
        input: (usize, usize, usize),
        convs: &[ConvSpec],
        hidden: &[usize],
        out: usize,
        task: Task,
        rng: &mut DetRng,
    ) -> Self {
        let mut params = Vec::new();
        let mut shape = input;
        for &spec in convs {
            let fan_in = shape.0 * spec.kernel * spec.kernel;
            let std = (2.0 / fan_in as f32).sqrt();
            params.push(Matrix::randn(spec.out_channels, fan_in, std, rng));
            params.push(Matrix::zeros(1, spec.out_channels));
            shape = conv_out_shape(shape, spec);
            assert!(shape.1 > 0 && shape.2 > 0, "pooled dimension collapsed");
        }
        let flat = shape.0 * shape.1 * shape.2;
        let mut dense_dims = vec![flat];
        dense_dims.extend_from_slice(hidden);
        dense_dims.push(out);
        for w in dense_dims.windows(2) {
            push_dense(&mut params, w[0], w[1], rng);
        }
        Self {
            arch: Arch::ConvMlp {
                input,
                convs: convs.to_vec(),
                dense_dims,
            },
            params,
            task,
        }
    }

    /// Layer widths of the dense part (for dense networks, all layers).
    pub fn dims(&self) -> &[usize] {
        match &self.arch {
            Arch::Dense { dims } => dims,
            Arch::ConvMlp { dense_dims, .. } => dense_dims,
        }
    }

    /// Whether the network has convolutional stages.
    pub fn is_conv(&self) -> bool {
        matches!(self.arch, Arch::ConvMlp { .. })
    }

    /// The output-head objective.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The parameter matrices, `[W1, b1, W2, b2, ...]`.
    pub fn params(&self) -> &[Matrix] {
        &self.params
    }

    /// Mutable access to the parameter matrices.
    pub fn params_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    /// Number of parameter rows across all matrices — the granularity
    /// ROG schedules at.
    pub fn total_rows(&self) -> usize {
        self.params.iter().map(Matrix::rows).sum()
    }

    /// Width (column count) of every row, in global row order.
    pub fn row_widths(&self) -> Vec<usize> {
        let mut widths = Vec::with_capacity(self.total_rows());
        for m in &self.params {
            widths.extend(std::iter::repeat_n(m.cols(), m.rows()));
        }
        widths
    }

    /// A zeroed gradient set shaped like the parameters.
    pub fn zero_grads(&self) -> GradSet {
        self.params
            .iter()
            .map(|m| Matrix::zeros(m.rows(), m.cols()))
            .collect()
    }

    /// Forward pass for one input; returns raw output (logits or
    /// regression values).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input size.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        match &self.arch {
            Arch::Dense { .. } => {
                let n_layers = self.params.len() / 2;
                let mut a = x.to_vec();
                for l in 0..n_layers {
                    a = self.dense_forward_one(l, &a, l + 1 < n_layers);
                }
                a
            }
            Arch::ConvMlp { input, convs, .. } => {
                let mut a = x.to_vec();
                let mut shape = *input;
                for (s, &spec) in convs.iter().enumerate() {
                    let (z, _) = conv_forward(
                        &self.params[2 * s],
                        &self.params[2 * s + 1],
                        &a,
                        shape,
                        spec,
                    );
                    let mut act = z;
                    ops::relu(&mut act);
                    let out_shape = conv_out_shape(shape, spec);
                    a = avg_pool(
                        &act,
                        (
                            spec.out_channels,
                            shape.1 - spec.kernel + 1,
                            shape.2 - spec.kernel + 1,
                        ),
                        spec.pool,
                    );
                    shape = out_shape;
                }
                let first_dense = convs.len();
                let n_dense = self.params.len() / 2 - first_dense;
                for l in 0..n_dense {
                    let li = first_dense + l;
                    a = self.dense_forward_one(li, &a, l + 1 < n_dense);
                }
                a
            }
        }
    }

    fn dense_forward_one(&self, layer: usize, a: &[f32], relu: bool) -> Vec<f32> {
        let w = &self.params[2 * layer];
        let b = &self.params[2 * layer + 1];
        let mut z = w.matvec(a);
        for (zv, bv) in z.iter_mut().zip(b.row(0)) {
            *zv += bv;
        }
        if relu {
            ops::relu(&mut z);
        }
        z
    }

    /// Computes mean loss and mean gradients over the dataset rows
    /// selected by `idxs`, plus the number of correct predictions
    /// (classification only).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or the dataset's target kind
    /// does not match the model task.
    pub fn loss_and_grad(&self, data: &Dataset, idxs: &[usize]) -> (f32, GradSet, usize) {
        let mut grads = self.zero_grads();
        let (loss, correct) = self.loss_and_grad_into(data, idxs, &mut grads);
        (loss, grads, correct)
    }

    /// Like [`Mlp::loss_and_grad`], but writes the gradients into a
    /// caller-provided parameter-shaped buffer (zeroed first), so hot
    /// loops can recycle gradient sets instead of allocating one per
    /// draw. Returns the mean loss and correct-prediction count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Mlp::loss_and_grad`], or if
    /// `grads` is not shaped like the parameters.
    pub fn loss_and_grad_into(
        &self,
        data: &Dataset,
        idxs: &[usize],
        grads: &mut GradSet,
    ) -> (f32, usize) {
        assert!(!idxs.is_empty(), "empty batch");
        assert_eq!(grads.len(), self.params.len(), "gradient set mismatch");
        for g in grads.iter_mut() {
            g.fill_zero();
        }
        let inv_n = 1.0 / idxs.len() as f32;
        match &self.arch {
            Arch::Dense { .. } => {
                let (total_loss, correct) = SCRATCH
                    .with_borrow_mut(|s| self.backward_dense_batch(s, data, idxs, inv_n, grads));
                (total_loss * inv_n, correct)
            }
            Arch::ConvMlp { .. } => {
                let mut total_loss = 0.0f32;
                let mut correct = 0usize;
                for &i in idxs {
                    let (loss, ok) = self.backward_conv(data, i, inv_n, grads);
                    total_loss += loss;
                    correct += usize::from(ok);
                }
                (total_loss * inv_n, correct)
            }
        }
    }

    /// Loss and dL/d(output) for one sample's raw output.
    fn output_grad(&self, data: &Dataset, i: usize, out: &[f32]) -> (f32, Vec<f32>, bool) {
        match (&data.targets, self.task) {
            (Targets::Labels(ys), Task::Classification) => {
                let label = ys[i];
                let ok = argmax(out) == label;
                let mut d = out.to_vec();
                let loss = ops::softmax_ce_grad(&mut d, label);
                (loss, d, ok)
            }
            (Targets::Values(ys), Task::Regression) => {
                let y = ys.row(i);
                assert_eq!(y.len(), out.len(), "target width mismatch");
                let k = out.len() as f32;
                let loss = ops::sq_dist(out, y) / k;
                let d = out.iter().zip(y).map(|(o, t)| 2.0 * (o - t) / k).collect();
                (loss, d, false)
            }
            _ => panic!("dataset target kind does not match model task"),
        }
    }

    /// Batched dense forward of the dataset rows `rows`: fills
    /// `s.acts` through every layer, one `batch x width` matrix each,
    /// every pre-activation summed in `order`.
    fn forward_dense_batch(
        &self,
        s: &mut DenseScratch,
        data: &Dataset,
        rows: impl ExactSizeIterator<Item = usize>,
        order: SumOrder,
    ) {
        let n_layers = self.params.len() / 2;
        // Grow only: a thread alternating between model depths keeps
        // every buffer it has warmed.
        if s.acts.len() <= n_layers {
            s.acts.resize_with(n_layers + 1, Matrix::default);
        }
        s.acts[0].reshape(rows.len(), self.dims()[0]);
        for (r, i) in rows.enumerate() {
            s.acts[0].row_mut(r).copy_from_slice(data.input(i));
        }
        for l in 0..n_layers {
            let (inputs, outputs) = s.acts.split_at_mut(l + 1);
            let z = &mut outputs[0];
            inputs[l].matmul_transb_into(&self.params[2 * l], order, &mut s.panels, z);
            let bias = self.params[2 * l + 1].row(0);
            for r in 0..z.rows() {
                for (zv, bv) in z.row_mut(r).iter_mut().zip(bias) {
                    *zv += bv;
                }
            }
            if l + 1 < n_layers {
                ops::relu(z.as_mut_slice());
            }
        }
    }

    /// Batched dense backward pass: the whole batch flows through every
    /// layer as one `batch x width` matrix, so the hot loops are the
    /// [`Matrix::matmul_transb_into`], [`Matrix::add_outer_batch`] and
    /// [`Matrix::matmul_into`] kernels instead of per-sample matvecs.
    /// Weight and bias gradients still sum sample by sample
    /// (`dW += dz_r ⊗ a_r`), the element-wise order of a per-sample
    /// sweep.
    fn backward_dense_batch(
        &self,
        s: &mut DenseScratch,
        data: &Dataset,
        idxs: &[usize],
        scale: f32,
        grads: &mut GradSet,
    ) -> (f32, usize) {
        self.forward_dense_batch(s, data, idxs.iter().copied(), SumOrder::Four);
        let DenseScratch { acts, dz, da, .. } = s;
        let n_layers = self.params.len() / 2;
        let b = idxs.len();
        // The logits become dL/dz of the output layer in place.
        std::mem::swap(dz, &mut acts[n_layers]);
        let mut total_loss = 0.0f32;
        let mut correct = 0usize;
        match (&data.targets, self.task) {
            (Targets::Labels(ys), Task::Classification) => {
                for (r, &i) in idxs.iter().enumerate() {
                    let row = dz.row_mut(r);
                    correct += usize::from(argmax(row) == ys[i]);
                    total_loss += ops::softmax_ce_grad(row, ys[i]);
                }
            }
            (Targets::Values(ys), Task::Regression) => {
                for (r, &i) in idxs.iter().enumerate() {
                    let y = ys.row(i);
                    let row = dz.row_mut(r);
                    assert_eq!(y.len(), row.len(), "target width mismatch");
                    let k = row.len() as f32;
                    total_loss += ops::sq_dist(row, y) / k;
                    for (o, t) in row.iter_mut().zip(y) {
                        *o = 2.0 * (*o - t) / k;
                    }
                }
            }
            _ => panic!("dataset target kind does not match model task"),
        }
        for l in (0..n_layers).rev() {
            let (left, right) = grads.split_at_mut(2 * l + 1);
            left[2 * l].add_outer_batch(dz, &acts[l], scale);
            let gb = right[0].row_mut(0);
            for r in 0..b {
                for (g, d) in gb.iter_mut().zip(dz.row(r)) {
                    *g += d * scale;
                }
            }
            if l > 0 {
                dz.matmul_into(&self.params[2 * l], da);
                // `act <= 0` is `pre <= 0` for every pre-activation
                // (`-0.0` and NaN included), so the post-ReLU input
                // of layer `l` is its own mask.
                ops::relu_backward(acts[l].as_slice(), da.as_mut_slice());
                std::mem::swap(dz, da);
            }
        }
        (total_loss, correct)
    }

    /// Calls `f(i, raw output of sample i)` for every sample, in order.
    /// Dense models run [`EVAL_BLOCK`] samples at a time through the
    /// batched forward in [`SumOrder::Eight`], which is bit for bit
    /// what [`Mlp::forward`] computes one sample at a time.
    fn for_each_output(&self, data: &Dataset, mut f: impl FnMut(usize, &[f32])) {
        if self.is_conv() {
            for i in 0..data.len() {
                f(i, &self.forward(data.input(i)));
            }
            return;
        }
        SCRATCH.with_borrow_mut(|s| {
            for start in (0..data.len()).step_by(EVAL_BLOCK) {
                let block = start..data.len().min(start + EVAL_BLOCK);
                self.forward_dense_batch(s, data, block.clone(), SumOrder::Eight);
                let out = &s.acts[self.params.len() / 2];
                for (r, i) in block.enumerate() {
                    f(i, out.row(r));
                }
            }
        });
    }

    fn backward_conv(
        &self,
        data: &Dataset,
        i: usize,
        scale: f32,
        grads: &mut GradSet,
    ) -> (f32, bool) {
        let Arch::ConvMlp { input, convs, .. } = &self.arch else {
            unreachable!("dense handled separately");
        };
        let x = data.input(i);
        // Forward with caches.
        let mut shape = *input;
        let mut stage_in: Vec<Vec<f32>> = vec![x.to_vec()];
        let mut stage_pre: Vec<Vec<f32>> = Vec::new(); // pre-ReLU conv maps
        let mut stage_conv_shape: Vec<(usize, usize, usize)> = Vec::new();
        let mut in_shapes: Vec<(usize, usize, usize)> = vec![shape];
        for (s, &spec) in convs.iter().enumerate() {
            let (z, conv_shape) = conv_forward(
                &self.params[2 * s],
                &self.params[2 * s + 1],
                stage_in.last().expect("non-empty"),
                shape,
                spec,
            );
            stage_pre.push(z.clone());
            stage_conv_shape.push(conv_shape);
            let mut act = z;
            ops::relu(&mut act);
            let pooled = avg_pool(&act, conv_shape, spec.pool);
            shape = conv_out_shape(shape, spec);
            in_shapes.push(shape);
            stage_in.push(pooled);
        }
        // Dense part forward.
        let first_dense = convs.len();
        let n_dense = self.params.len() / 2 - first_dense;
        let mut acts: Vec<Vec<f32>> = vec![stage_in.last().expect("non-empty").clone()];
        let mut pres: Vec<Vec<f32>> = Vec::with_capacity(n_dense);
        for l in 0..n_dense {
            let w = &self.params[2 * (first_dense + l)];
            let b = &self.params[2 * (first_dense + l) + 1];
            let mut z = w.matvec(acts.last().expect("non-empty"));
            for (zv, bv) in z.iter_mut().zip(b.row(0)) {
                *zv += bv;
            }
            pres.push(z.clone());
            if l + 1 < n_dense {
                ops::relu(&mut z);
            }
            acts.push(z);
        }
        let out = acts.last().expect("non-empty");
        let (loss, mut dz, ok) = self.output_grad(data, i, out);
        // Dense backward.
        for l in (0..n_dense).rev() {
            let li = first_dense + l;
            grads[2 * li].add_outer(&dz, &acts[l], scale);
            for (g, d) in grads[2 * li + 1].row_mut(0).iter_mut().zip(&dz) {
                *g += d * scale;
            }
            let w = &self.params[2 * li];
            let mut da = w.matvec_t(&dz);
            if l > 0 {
                ops::relu_backward(&pres[l - 1], &mut da);
            }
            dz = da;
        }
        // Conv backward (dz is now the gradient w.r.t. the last pooled
        // map).
        let mut dpool = dz;
        for s in (0..convs.len()).rev() {
            let spec = convs[s];
            let conv_shape = stage_conv_shape[s];
            // Un-pool: spread gradient evenly over the window.
            let mut dact = unpool_grad(&dpool, conv_shape, spec.pool);
            // ReLU mask on the pre-activation.
            ops::relu_backward(&stage_pre[s], &mut dact);
            // Kernel/bias/input gradients.
            let (gk, gb) = grads.split_at_mut(2 * s + 1);
            let din = conv_backward(
                &self.params[2 * s],
                &stage_in[s],
                in_shapes[s],
                spec,
                &dact,
                conv_shape,
                scale,
                &mut gk[2 * s],
                &mut gb[0],
            );
            dpool = din;
        }
        (loss, ok)
    }

    /// Classification accuracy in percent over a labeled dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is unlabeled or empty.
    pub fn accuracy_percent(&self, data: &Dataset) -> f64 {
        let Targets::Labels(ys) = &data.targets else {
            panic!("accuracy requires labels");
        };
        assert!(!ys.is_empty(), "empty dataset");
        let mut correct = 0usize;
        self.for_each_output(data, |i, out| correct += usize::from(argmax(out) == ys[i]));
        100.0 * correct as f64 / ys.len() as f64
    }

    /// Mean squared error over a regression dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has labels instead of values, or is empty.
    pub fn mse(&self, data: &Dataset) -> f64 {
        let Targets::Values(ys) = &data.targets else {
            panic!("mse requires value targets");
        };
        assert!(!data.is_empty(), "empty dataset");
        let mut total = 0.0f64;
        self.for_each_output(data, |i, out| {
            total += ops::sq_dist(out, ys.row(i)) as f64 / out.len() as f64;
        });
        total / data.len() as f64
    }
}

fn push_dense(params: &mut Vec<Matrix>, fan_in: usize, fan_out: usize, rng: &mut DetRng) {
    let std = (2.0 / fan_in as f32).sqrt();
    params.push(Matrix::randn(fan_out, fan_in, std, rng));
    params.push(Matrix::zeros(1, fan_out));
}

/// Valid 2-D convolution, stride 1. Input is `(c, h, w)` flattened
/// row-major; kernels are `(out_ch, c*k*k)`. Returns the flattened
/// pre-activation map and its shape.
fn conv_forward(
    kernels: &Matrix,
    bias: &Matrix,
    input: &[f32],
    in_shape: (usize, usize, usize),
    spec: ConvSpec,
) -> (Vec<f32>, (usize, usize, usize)) {
    let (c, h, w) = in_shape;
    assert_eq!(input.len(), c * h * w, "input shape mismatch");
    let k = spec.kernel;
    let (oh, ow) = (h - k + 1, w - k + 1);
    let mut out = vec![0.0f32; spec.out_channels * oh * ow];
    for o in 0..spec.out_channels {
        let kern = kernels.row(o);
        let b = bias.get(0, o);
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = b;
                for ci in 0..c {
                    let base = ci * h * w;
                    let kbase = ci * k * k;
                    for dy in 0..k {
                        let row = base + (y + dy) * w + x;
                        let krow = kbase + dy * k;
                        for dx in 0..k {
                            acc += kern[krow + dx] * input[row + dx];
                        }
                    }
                }
                out[o * oh * ow + y * ow + x] = acc;
            }
        }
    }
    (out, (spec.out_channels, oh, ow))
}

/// Non-overlapping average pooling over `(c, h, w)`; truncates ragged
/// edges.
fn avg_pool(input: &[f32], shape: (usize, usize, usize), pool: usize) -> Vec<f32> {
    let p = pool.max(1);
    if p == 1 {
        return input.to_vec();
    }
    let (c, h, w) = shape;
    let (oh, ow) = (h / p, w / p);
    let inv = 1.0 / (p * p) as f32;
    let mut out = vec![0.0f32; c * oh * ow];
    for ci in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0.0;
                for dy in 0..p {
                    for dx in 0..p {
                        acc += input[ci * h * w + (y * p + dy) * w + x * p + dx];
                    }
                }
                out[ci * oh * ow + y * ow + x] = acc * inv;
            }
        }
    }
    out
}

/// Gradient of average pooling: spread each pooled gradient evenly.
fn unpool_grad(dpool: &[f32], conv_shape: (usize, usize, usize), pool: usize) -> Vec<f32> {
    let p = pool.max(1);
    let (c, h, w) = conv_shape;
    if p == 1 {
        return dpool.to_vec();
    }
    let (oh, ow) = (h / p, w / p);
    let inv = 1.0 / (p * p) as f32;
    let mut out = vec![0.0f32; c * h * w];
    for ci in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let g = dpool[ci * oh * ow + y * ow + x] * inv;
                for dy in 0..p {
                    for dx in 0..p {
                        out[ci * h * w + (y * p + dy) * w + x * p + dx] = g;
                    }
                }
            }
        }
    }
    out
}

/// Backward pass of the valid convolution: accumulates kernel and bias
/// gradients (scaled) and returns the input gradient.
#[allow(clippy::too_many_arguments)]
fn conv_backward(
    kernels: &Matrix,
    input: &[f32],
    in_shape: (usize, usize, usize),
    spec: ConvSpec,
    dz: &[f32],
    conv_shape: (usize, usize, usize),
    scale: f32,
    dkern: &mut Matrix,
    dbias: &mut Matrix,
) -> Vec<f32> {
    let (c, h, w) = in_shape;
    let (_, oh, ow) = conv_shape;
    let k = spec.kernel;
    let mut din = vec![0.0f32; c * h * w];
    for o in 0..spec.out_channels {
        let kern = kernels.row(o);
        let dk = dkern.row_mut(o);
        let mut db = 0.0f32;
        for y in 0..oh {
            for x in 0..ow {
                let g = dz[o * oh * ow + y * ow + x];
                if g == 0.0 {
                    continue;
                }
                db += g;
                let gs = g * scale;
                for ci in 0..c {
                    let base = ci * h * w;
                    let kbase = ci * k * k;
                    for dy in 0..k {
                        let row = base + (y + dy) * w + x;
                        let krow = kbase + dy * k;
                        for dx in 0..k {
                            dk[krow + dx] += gs * input[row + dx];
                            din[row + dx] += g * kern[krow + dx];
                        }
                    }
                }
            }
        }
        let cur = dbias.get(0, o);
        dbias.set(0, o, cur + db * scale);
    }
    din
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rog_tensor::simd::{testhooks::on_each_isa, Isa};

    fn tiny_dataset() -> Dataset {
        // Two linearly separable classes in 2-D.
        let xs = Matrix::from_rows(&[[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]);
        Dataset::labeled(xs, vec![0, 0, 1, 1])
    }

    #[test]
    fn shapes_and_row_counts() {
        let mlp = Mlp::new(&[4, 8, 3], Task::Classification, &mut DetRng::new(0));
        assert_eq!(mlp.params().len(), 4);
        assert_eq!(mlp.total_rows(), 8 + 1 + 3 + 1);
        assert_eq!(mlp.row_widths().len(), mlp.total_rows());
        assert_eq!(mlp.row_widths()[0], 4);
        assert!(!mlp.is_conv());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = DetRng::new(5);
        let mlp = Mlp::new(&[2, 5, 2], Task::Classification, &mut rng);
        let data = tiny_dataset();
        let idxs = [0, 2];
        let (_, grads, _) = mlp.loss_and_grad(&data, &idxs);
        let eps = 1e-3f32;
        // Check several parameters across all matrices.
        for (mi, probe) in [
            (0usize, (1usize, 1usize)),
            (1, (0, 2)),
            (2, (1, 3)),
            (3, (0, 0)),
        ] {
            let mut plus = mlp.clone();
            plus.params_mut()[mi].set(
                probe.0,
                probe.1,
                mlp.params()[mi].get(probe.0, probe.1) + eps,
            );
            let mut minus = mlp.clone();
            minus.params_mut()[mi].set(
                probe.0,
                probe.1,
                mlp.params()[mi].get(probe.0, probe.1) - eps,
            );
            let (lp, _, _) = plus.loss_and_grad(&data, &idxs);
            let (lm, _, _) = minus.loss_and_grad(&data, &idxs);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[mi].get(probe.0, probe.1);
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "matrix {mi} {probe:?}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn regression_gradient_matches_finite_differences() {
        let mut rng = DetRng::new(6);
        let mlp = Mlp::new(&[2, 4, 1], Task::Regression, &mut rng);
        let data = Dataset::regression(
            Matrix::from_rows(&[[0.5, -0.5], [1.0, 1.0]]),
            Matrix::from_rows(&[[1.0], [-1.0]]),
        );
        let (_, grads, _) = mlp.loss_and_grad(&data, &[0, 1]);
        let eps = 1e-3f32;
        let base = mlp.params()[0].get(2, 1);
        let mut plus = mlp.clone();
        plus.params_mut()[0].set(2, 1, base + eps);
        let mut minus = mlp.clone();
        minus.params_mut()[0].set(2, 1, base - eps);
        let (lp, _, _) = plus.loss_and_grad(&data, &[0, 1]);
        let (lm, _, _) = minus.loss_and_grad(&data, &[0, 1]);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grads[0].get(2, 1);
        assert!(
            (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn sgd_training_learns_separable_problem() {
        let mut rng = DetRng::new(7);
        let mut mlp = Mlp::new(&[2, 8, 2], Task::Classification, &mut rng);
        let data = tiny_dataset();
        let idxs: Vec<usize> = (0..4).collect();
        for _ in 0..200 {
            let (_, grads, _) = mlp.loss_and_grad(&data, &idxs);
            for (p, g) in mlp.params_mut().iter_mut().zip(&grads) {
                p.add_scaled(g, -0.5).expect("shapes match");
            }
        }
        assert_eq!(mlp.accuracy_percent(&data), 100.0);
    }

    #[test]
    fn loss_decreases_under_regression_training() {
        let mut rng = DetRng::new(8);
        let mut mlp = Mlp::new(&[1, 8, 1], Task::Regression, &mut rng);
        let xs = Matrix::from_fn(16, 1, |i, _| i as f32 / 8.0 - 1.0);
        let ys = Matrix::from_fn(16, 1, |i, _| xs.get(i, 0) * xs.get(i, 0));
        let data = Dataset::regression(xs, ys);
        let idxs: Vec<usize> = (0..16).collect();
        let before = mlp.mse(&data);
        for _ in 0..300 {
            let (_, grads, _) = mlp.loss_and_grad(&data, &idxs);
            for (p, g) in mlp.params_mut().iter_mut().zip(&grads) {
                p.add_scaled(g, -0.3).expect("shapes match");
            }
        }
        assert!(
            mlp.mse(&data) < before / 4.0,
            "mse {} -> {}",
            before,
            mlp.mse(&data)
        );
    }

    #[test]
    fn forward_is_deterministic_for_fixed_seed() {
        let a = Mlp::new(&[3, 4, 2], Task::Classification, &mut DetRng::new(11));
        let b = Mlp::new(&[3, 4, 2], Task::Classification, &mut DetRng::new(11));
        assert_eq!(a.forward(&[0.1, 0.2, 0.3]), b.forward(&[0.1, 0.2, 0.3]));
    }

    #[test]
    #[should_panic(expected = "does not match model task")]
    fn task_mismatch_panics() {
        let mlp = Mlp::new(&[2, 2], Task::Regression, &mut DetRng::new(0));
        let data = tiny_dataset();
        let _ = mlp.loss_and_grad(&data, &[0]);
    }

    /// `y += s * x` only for a non-zero `s`: the inner loop the
    /// weight-gradient and `dz · W` loops below were written with.
    fn skipping_axpy(y: &mut [f32], x: &[f32], s: f32) {
        if s != 0.0 {
            for (yv, xv) in y.iter_mut().zip(x) {
                *yv += s * xv;
            }
        }
    }

    /// `backward_dense_batch` as it was before the panel kernel, the
    /// reused scratch and the compacting backward kernel: fresh matrices
    /// per layer, the pre-activations cloned for the ReLU mask, the
    /// per-sample `add_outer` and the i-k-j `dz · W` spelled out. The
    /// oracle of the test below.
    fn backward_dense_batch_before(
        mlp: &Mlp,
        data: &Dataset,
        idxs: &[usize],
        scale: f32,
        grads: &mut GradSet,
    ) -> (f32, usize) {
        let n_layers = mlp.params.len() / 2;
        let b = idxs.len();
        let mut x = Matrix::zeros(b, mlp.dims()[0]);
        for (r, &i) in idxs.iter().enumerate() {
            x.row_mut(r).copy_from_slice(data.input(i));
        }
        let mut acts: Vec<Matrix> = vec![x];
        let mut pres: Vec<Matrix> = Vec::with_capacity(n_layers.saturating_sub(1));
        for l in 0..n_layers {
            let w = &mlp.params[2 * l];
            let bias = &mlp.params[2 * l + 1];
            let mut z = acts[l].matmul_transb(w);
            for r in 0..b {
                for (zv, bv) in z.row_mut(r).iter_mut().zip(bias.row(0)) {
                    *zv += bv;
                }
            }
            if l + 1 < n_layers {
                pres.push(z.clone());
                ops::relu(z.as_mut_slice());
            }
            acts.push(z);
        }
        let mut dz = acts.pop().expect("non-empty");
        let mut total_loss = 0.0f32;
        let mut correct = 0usize;
        match (&data.targets, mlp.task) {
            (Targets::Labels(ys), Task::Classification) => {
                for (r, &i) in idxs.iter().enumerate() {
                    let row = dz.row_mut(r);
                    correct += usize::from(argmax(row) == ys[i]);
                    total_loss += ops::softmax_ce_grad(row, ys[i]);
                }
            }
            (Targets::Values(ys), Task::Regression) => {
                for (r, &i) in idxs.iter().enumerate() {
                    let y = ys.row(i);
                    let row = dz.row_mut(r);
                    let k = row.len() as f32;
                    total_loss += ops::sq_dist(row, y) / k;
                    for (o, t) in row.iter_mut().zip(y) {
                        *o = 2.0 * (*o - t) / k;
                    }
                }
            }
            _ => panic!("dataset target kind does not match model task"),
        }
        for l in (0..n_layers).rev() {
            let (left, right) = grads.split_at_mut(2 * l + 1);
            let gw = &mut left[2 * l];
            let gb = &mut right[0];
            for r in 0..b {
                for (o, &d) in dz.row(r).iter().enumerate() {
                    skipping_axpy(gw.row_mut(o), acts[l].row(r), d * scale);
                }
                for (g, d) in gb.row_mut(0).iter_mut().zip(dz.row(r)) {
                    *g += d * scale;
                }
            }
            if l > 0 {
                let w = &mlp.params[2 * l];
                let mut da = Matrix::zeros(b, w.cols());
                for r in 0..b {
                    for (k, &d) in dz.row(r).iter().enumerate() {
                        skipping_axpy(da.row_mut(r), w.row(k), d);
                    }
                }
                for r in 0..b {
                    ops::relu_backward(pres[l - 1].row(r), da.row_mut(r));
                }
                dz = da;
            }
        }
        (total_loss, correct)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batched_dense_passes_are_bit_identical_to_their_ancestors() {
        use crate::{CrimpSpec, CrudaSpec, Workload};
        let mut rng = DetRng::new(77);
        // (model, training shard, evaluation set); CRIMP's single output
        // is all `n mod 4` remainder.
        let mut cases: Vec<(Mlp, Dataset, Dataset)> = Vec::new();
        for spec in [CrudaSpec::small(), CrudaSpec::paper()] {
            let wl = spec.build(2, &mut rng);
            let model = wl.make_model(&mut rng);
            cases.push((model, wl.shards()[1].clone(), wl.target_test().clone()));
        }
        for spec in [CrimpSpec::small(), CrimpSpec::paper()] {
            let wl = spec.build(2, &mut rng);
            let model = wl.make_model(&mut rng);
            cases.push((model, wl.shards()[0].clone(), wl.shards()[1].clone()));
        }
        let all = [Isa::Portable, Isa::Avx2, Isa::Avx512];
        on_each_isa("mlp", &all, |_| dense_passes_match(&cases, rng.clone()));
    }

    fn dense_passes_match(cases: &[(Mlp, Dataset, Dataset)], mut rng: DetRng) {
        // Shapes alternate on one thread, so the scratch is reshaped
        // between every pair of calls; 70 samples overflow one stack
        // chunk of weight-gradient terms.
        let mut idxs = Vec::new();
        for batch in [1usize, 7, 23, 49, 70] {
            for (model, shard, test) in cases {
                shard.sample_batch_into(batch, &mut rng, &mut idxs);
                let mut got = model.zero_grads();
                let (loss, correct) = model.loss_and_grad_into(shard, &idxs, &mut got);
                let inv_n = 1.0 / batch as f32;
                let mut want = model.zero_grads();
                let (total, want_correct) =
                    backward_dense_batch_before(model, shard, &idxs, inv_n, &mut want);
                assert_eq!(loss.to_bits(), (total * inv_n).to_bits());
                assert_eq!(correct, want_correct);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(bits(g.as_slice()), bits(w.as_slice()), "batch {batch}");
                }

                let mut seen = 0;
                model.for_each_output(test, |i, out| {
                    assert_eq!(i, seen);
                    assert_eq!(bits(out), bits(&model.forward(test.input(i))), "sample {i}");
                    seen += 1;
                });
                assert_eq!(seen, test.len());
                match &test.targets {
                    Targets::Labels(ys) => {
                        let hits = (0..ys.len())
                            .filter(|&i| argmax(&model.forward(test.input(i))) == ys[i])
                            .count();
                        let want = 100.0 * hits as f64 / ys.len() as f64;
                        assert_eq!(model.accuracy_percent(test).to_bits(), want.to_bits());
                    }
                    Targets::Values(ys) => {
                        let total: f64 = (0..test.len())
                            .map(|i| {
                                let out = model.forward(test.input(i));
                                ops::sq_dist(&out, ys.row(i)) as f64 / out.len() as f64
                            })
                            .sum();
                        let want = total / test.len() as f64;
                        assert_eq!(model.mse(test).to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    // ---- ConvMLP ----

    fn conv_net(rng: &mut DetRng) -> Mlp {
        Mlp::conv_mlp(
            (1, 6, 6),
            &[ConvSpec {
                out_channels: 3,
                kernel: 3,
                pool: 2,
            }],
            &[10],
            2,
            Task::Classification,
            rng,
        )
    }

    fn image_dataset(rng: &mut DetRng) -> Dataset {
        // Class 0: bright top half; class 1: bright bottom half.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            let class = i % 2;
            let img: Vec<f32> = (0..36)
                .map(|p| {
                    let row = p / 6;
                    let bright = if class == 0 { row < 3 } else { row >= 3 };
                    (if bright { 1.0 } else { 0.0 }) + 0.1 * rng.normal() as f32
                })
                .collect();
            xs.push(img);
            ys.push(class);
        }
        Dataset::labeled(Matrix::from_rows(&xs), ys)
    }

    #[test]
    fn conv_shapes_are_consistent() {
        let net = conv_net(&mut DetRng::new(1));
        assert!(net.is_conv());
        // conv (1,6,6) -k3-> (3,4,4) -pool2-> (3,2,2) = 12 flat.
        assert_eq!(net.params()[0].shape(), (3, 9));
        assert_eq!(net.params()[1].shape(), (1, 3));
        assert_eq!(net.params()[2].shape(), (10, 12));
        assert_eq!(net.params()[4].shape(), (2, 10));
        let out = net.forward(&[0.5; 36]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn conv_gradient_matches_finite_differences() {
        let mut rng = DetRng::new(2);
        let net = conv_net(&mut rng);
        let data = image_dataset(&mut rng);
        let idxs = [0, 1, 2];
        let (_, grads, _) = net.loss_and_grad(&data, &idxs);
        let eps = 1e-2f32;
        // Probe kernel, conv bias, dense weight, dense bias, output
        // layer.
        for (mi, r, c) in [
            (0usize, 1usize, 4usize),
            (1, 0, 2),
            (2, 3, 7),
            (3, 0, 5),
            (4, 1, 1),
        ] {
            let base = net.params()[mi].get(r, c);
            let mut plus = net.clone();
            plus.params_mut()[mi].set(r, c, base + eps);
            let mut minus = net.clone();
            minus.params_mut()[mi].set(r, c, base - eps);
            let (lp, _, _) = plus.loss_and_grad(&data, &idxs);
            let (lm, _, _) = minus.loss_and_grad(&data, &idxs);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[mi].get(r, c);
            assert!(
                (numeric - analytic).abs() < 5e-2 * (1.0 + analytic.abs()),
                "matrix {mi} ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn conv_net_learns_spatial_pattern() {
        let mut rng = DetRng::new(3);
        let mut net = conv_net(&mut rng);
        let data = image_dataset(&mut rng);
        let idxs: Vec<usize> = (0..data.len()).collect();
        for _ in 0..150 {
            let (_, grads, _) = net.loss_and_grad(&data, &idxs);
            for (p, g) in net.params_mut().iter_mut().zip(&grads) {
                p.add_scaled(g, -0.2).expect("shapes match");
            }
        }
        assert!(
            net.accuracy_percent(&data) >= 90.0,
            "accuracy {}",
            net.accuracy_percent(&data)
        );
    }

    #[test]
    fn pooling_averages_windows() {
        // 1 channel, 4x4 input, pool 2.
        let input: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let out = avg_pool(&input, (1, 4, 4), 2);
        assert_eq!(out, vec![2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn unpool_spreads_evenly_and_is_adjoint() {
        let g = vec![4.0, 8.0, 12.0, 16.0];
        let spread = unpool_grad(&g, (1, 4, 4), 2);
        assert_eq!(spread.len(), 16);
        assert_eq!(spread[0], 1.0);
        assert_eq!(spread[5], 1.0);
        // <pool(x), g> == <x, unpool(g)> for any x (adjoint property).
        let x: Vec<f32> = (0..16).map(|v| (v as f32).sin()).collect();
        let px = avg_pool(&x, (1, 4, 4), 2);
        let lhs: f32 = px.iter().zip(&g).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&spread).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "kernel larger than input")]
    fn oversized_kernel_panics() {
        let _ = Mlp::conv_mlp(
            (1, 2, 2),
            &[ConvSpec {
                out_channels: 1,
                kernel: 3,
                pool: 1,
            }],
            &[],
            2,
            Task::Classification,
            &mut DetRng::new(0),
        );
    }
}
