import qlefschetz


def test_every_export_resolves_and_the_list_is_sorted():
    names = qlefschetz.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(qlefschetz, name)]
    assert missing == []
