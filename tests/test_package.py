import docnids

# Removed from the public API: no command called them.
REMOVED = [
    "Gradients", "backprop_batch", "sgd_step", "svdd_loss", "distance_score_batch",
    "Verdict", "classify", "split_benign",
]


def test_every_public_name_resolves():
    assert len(set(docnids.__all__)) == len(docnids.__all__)
    for name in docnids.__all__:
        assert getattr(docnids, name) is not None


def test_removed_names_are_gone():
    assert not set(REMOVED) & set(docnids.__all__)
    assert not [name for name in REMOVED if hasattr(docnids, name)]
