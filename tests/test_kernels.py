from groundlm import kernels

KERNEL_NAMES = ("layernorm_forward", "layernorm_backward", "gelu_forward",
                "gelu_backward", "softmax_forward", "softmax_backward",
                "masked_ce_forward", "masked_ce_backward", "adam_update",
                "scatter_add_rows", "gmm_estep")


def test_active_exposes_every_kernel():
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels.active, name)), name
    assert kernels.backend_name() == "numpy"
