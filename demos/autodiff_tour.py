"""Tour of the reverse-mode autodiff engine.

Builds a small expression, checks its gradient against central finite
differences, then fits a linear classifier on blobs with the momentum
optimizer — the same ops and training loop style the full pipeline uses.
"""

import numpy as np

from sgg.autodiff import (SgdMomentum, Tensor, add_bias, backward,
                          cross_entropy_with_softmax, finite_difference_check,
                          matmul, relu, schedule_lr)

rng = np.random.default_rng(0)

# 1. an expression and its gradient ------------------------------------------
xs = rng.normal(size=(5, 4))
targets = np.array([0, 2, 1, 2, 0])
w0 = rng.normal(size=(4, 3))

w = Tensor(w0.copy(), requires_grad=True)
loss = cross_entropy_with_softmax(relu(matmul(Tensor(xs), w)), targets)
backward(loss)
print("loss value:", round(loss.data.item(), 5))
print("gradient norm dL/dw:", round(float(np.linalg.norm(w.grad)), 5))

# 2. the same gradient from central finite differences ------------------------
err = finite_difference_check(
    lambda t: cross_entropy_with_softmax(relu(matmul(Tensor(xs), t)), targets),
    w0)
print(f"max relative error vs finite differences: {err:.2e}")

# 3. fit a linear classifier on three gaussian blobs ---------------------------
centers = np.array([[3.0, 0.0], [-3.0, 1.0], [0.0, -3.0]])
pts = np.concatenate([c + 0.7 * rng.normal(size=(40, 2)) for c in centers])
labels = np.repeat([0, 1, 2], 40)

wfit = Tensor(np.zeros((2, 3)), requires_grad=True)
bfit = Tensor(np.zeros(3), requires_grad=True)
opt = SgdMomentum([wfit, bfit], lr=0.5, momentum=0.9)
for epoch in range(1, 31):
    opt.set_epoch(epoch)
    logits = add_bias(matmul(Tensor(pts), wfit), bfit)
    ce = cross_entropy_with_softmax(logits, labels)
    backward(ce)
    opt.step()  # also zeroes the gradients for the next backward pass
    if epoch % 10 == 0:
        print(f"epoch {epoch:2d}  lr {schedule_lr(0.5, epoch):.3f}  "
              f"loss {ce.data.item():.4f}")

pred = np.argmax(pts @ wfit.data + bfit.data, axis=1)
print("train accuracy:", round(float(np.mean(pred == labels)), 4))
